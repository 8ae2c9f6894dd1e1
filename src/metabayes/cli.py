"""Command-line front-end: dataset conversion, model fitting and plotting.

Exit codes: 0 success, 2 user/configuration error, 3 fit completed but
convergence is suspect (max R-hat > 1.05), 4 sampling failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, viz
from .data import (
    BUILTIN_DATASETS,
    DataError,
    Dataset,
    Endpoint,
    builtin_dataset,
    convert_wide_to_long,
    parse_csv,
    read_long_csv,
    write_long_csv,
)
from .model import (
    DR_ROLES,
    ENDPOINT_FOR_LIKELIHOOD,
    LIKELIHOOD_FOR_ENDPOINT,
    ModelError,
    ModelFamily,
    ModelSpec,
    Prior,
    default_priors,
)
from .sampler import (
    PosteriorDraws,
    SamplerConfig,
    SamplingError,
    read_draws_csv,
    run_chains,
    write_draws_csv,
)

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_CONVERGENCE = 3
EXIT_SAMPLING = 4

RHAT_WARN_LIMIT = 1.05


class ConfigError(ValueError):
    """Invalid run configuration."""


# ---------------------------------------------------------------------------
# Strict JSON config validation
# ---------------------------------------------------------------------------


def _require_keys(section: dict, allowed: dict[str, type | tuple], where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in '{where}'")
    for key, value in section.items():
        expected = allowed[key]
        if expected is not None and not isinstance(value, expected):
            raise ConfigError(f"'{where}.{key}' has the wrong type")


_PRIOR_FIELDS = {
    "normal": ("mean", "sd"),
    "half_normal": ("scale",),
    "cauchy": ("location", "scale"),
    "uniform": ("lower", "upper"),
    "log_normal": ("log_mean", "log_sd"),
    "functional": (),
    "functional_ed50": (),
}


def _parse_prior(name: str, section: dict) -> Prior:
    if not isinstance(section, dict) or "family" not in section:
        raise ConfigError(f"prior '{name}' must be an object with a 'family' key")
    family = section["family"]
    if family not in _PRIOR_FIELDS:
        raise ConfigError(
            f"prior '{name}': unknown family '{family}' "
            f"(choose from {sorted(_PRIOR_FIELDS)})"
        )
    fields = _PRIOR_FIELDS[family]
    allowed = {"family": str, **{f: (int, float) for f in fields}}
    _require_keys(section, allowed, f"model.priors.{name}")
    missing = [f for f in fields if f not in section]
    if missing:
        raise ConfigError(f"prior '{name}' ({family}) is missing {missing}")
    params = tuple(float(section[f]) for f in fields)
    if family == "functional":
        family = "functional_ed50"
    try:
        return Prior(family, params)
    except ModelError as exc:
        raise ConfigError(f"prior '{name}': {exc}") from None


_DATA_KEYS = {
    "builtin": str,
    "path": str,
    "format": str,
    "endpoint": str,
    "arm_vars": dict,
    "n_arms_column": str,
    "covariate_columns": list,
    "label_column": str,
}

_MODEL_KEYS = {
    "family": str,
    "likelihood": str,
    "random_effects": bool,
    "parametrization": str,
    "non_centered": bool,
    "covariates": list,
    "dose_response": str,
    "max_dose": (int, float),
    "priors": dict,
}

_SAMPLER_KEYS = {
    "chains": int,
    "iter": int,
    "warmup": int,
    "seed": int,
    "target_accept": (int, float),
    "max_leapfrog_steps": int,
    "init_radius": (int, float),
}

_OUTPUT_KEYS = {"dir": str, "draws": bool}


def load_config(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, {"data": dict, "model": dict, "sampler": dict, "output": dict}, "config")
    for required in ("data", "model", "output"):
        if required not in raw:
            raise ConfigError(f"config needs a '{required}' section")
    _require_keys(raw["data"], _DATA_KEYS, "data")
    _require_keys(raw["model"], _MODEL_KEYS, "model")
    _require_keys(raw.get("sampler", {}), _SAMPLER_KEYS, "sampler")
    _require_keys(raw["output"], _OUTPUT_KEYS, "output")
    if "dir" not in raw["output"]:
        raise ConfigError("output.dir is required")
    return raw


def _load_dataset(data_cfg: dict) -> Dataset:
    if ("builtin" in data_cfg) == ("path" in data_cfg):
        raise ConfigError("data needs exactly one of 'builtin' or 'path'")
    if "builtin" in data_cfg:
        name = data_cfg["builtin"]
        if name not in BUILTIN_DATASETS:
            raise ConfigError(f"unknown builtin dataset '{name}' (choose from {BUILTIN_DATASETS})")
        return builtin_dataset(name)
    fmt = data_cfg.get("format", "long")
    endpoint = data_cfg.get("endpoint")
    if fmt == "long":
        return read_long_csv(data_cfg["path"], endpoint)
    if fmt != "wide":
        raise ConfigError("data.format must be 'long' or 'wide'")
    if endpoint is None:
        raise ConfigError("wide-format data needs data.endpoint")
    if "arm_vars" not in data_cfg:
        raise ConfigError("wide-format data needs data.arm_vars")
    wide = parse_csv(data_cfg["path"], n_arms_column=data_cfg.get("n_arms_column"))
    return convert_wide_to_long(
        wide,
        data_cfg["arm_vars"],
        endpoint,
        label_column=data_cfg.get("label_column"),
        covariate_columns=tuple(data_cfg.get("covariate_columns", ())),
    )


def _build_spec(model_cfg: dict, dataset: Dataset) -> ModelSpec:
    likelihood = model_cfg.get("likelihood")
    if likelihood is not None:
        if likelihood not in ENDPOINT_FOR_LIKELIHOOD:
            raise ConfigError(
                f"unknown likelihood '{likelihood}' "
                f"(choose from {sorted(ENDPOINT_FOR_LIKELIHOOD)})"
            )
        if ENDPOINT_FOR_LIKELIHOOD[likelihood] is not dataset.endpoint:
            raise ConfigError(
                f"likelihood '{likelihood}' does not match the dataset's "
                f"'{dataset.endpoint.value}' columns"
            )
    family = model_cfg.get("family", "pairwise")
    try:
        family = ModelFamily(family)
    except ValueError:
        raise ConfigError(f"unknown model family '{family}'") from None

    covariates = None
    if "covariates" in model_cfg:
        rows = model_cfg["covariates"]
        if rows and not isinstance(rows[0], list):
            rows = [[v] for v in rows]
        try:
            covariates = tuple(tuple(float(v) for v in r) for r in rows)
        except (TypeError, ValueError):
            raise ConfigError("model.covariates must be numbers") from None

    priors = {
        name: _parse_prior(name, sub)
        for name, sub in model_cfg.get("priors", {}).items()
    }
    try:
        spec = ModelSpec(
            family=family,
            endpoint=dataset.endpoint,
            random_effects=model_cfg.get("random_effects", True),
            parametrization=model_cfg.get("parametrization", "symmetric"),
            non_centered=model_cfg.get("non_centered", True),
            covariates=covariates,
            dose_response=model_cfg.get("dose_response"),
            priors=priors,
            max_dose=model_cfg.get("max_dose"),
        )
        spec.validate_against(dataset)
    except (ModelError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return spec


def _build_sampler_config(sampler_cfg: dict) -> SamplerConfig:
    try:
        return SamplerConfig(**sampler_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sampler: {exc}") from None


# ---------------------------------------------------------------------------
# Serialization of fit artifacts
# ---------------------------------------------------------------------------


def _spec_to_dict(spec: ModelSpec, priors: dict[str, Prior]) -> dict:
    return {
        "family": spec.family.value,
        "endpoint": spec.endpoint.value,
        "likelihood": LIKELIHOOD_FOR_ENDPOINT[spec.endpoint],
        "random_effects": spec.random_effects,
        "parametrization": spec.parametrization.value,
        "non_centered": spec.non_centered,
        "covariates": [list(r) for r in spec.covariates] if spec.covariates else None,
        "dose_response": spec.dose_response.value if spec.dose_response else None,
        "max_dose": spec.max_dose,
        "priors": {
            name: {"family": p.family, "params": list(p.params), "label": p.label()}
            for name, p in priors.items()
        },
    }


def _spec_from_dict(d: dict) -> ModelSpec:
    priors = {
        name: Prior(p["family"], tuple(p["params"])) for name, p in d["priors"].items()
    }
    return ModelSpec(
        family=d["family"],
        endpoint=d["endpoint"],
        random_effects=d["random_effects"],
        parametrization=d["parametrization"],
        non_centered=d["non_centered"],
        covariates=tuple(tuple(r) for r in d["covariates"]) if d["covariates"] else None,
        dose_response=d["dose_response"],
        priors=priors,
        max_dose=d["max_dose"],
    )


def _dataset_to_dict(dataset: Dataset) -> dict:
    arm_fields = ("study", "arm", "dose", "responders", "sample_size", "mean", "std_err", "events", "exposure")
    return {
        "endpoint": dataset.endpoint.value,
        "n_studies": dataset.n_studies,
        "arms_per_study": list(dataset.arms_per_study),
        "study_labels": list(dataset.study_labels) if dataset.study_labels else None,
        "arms": [
            {f: getattr(a, f) for f in arm_fields if getattr(a, f) is not None}
            for a in dataset.arms
        ],
    }


def _dataset_from_dict(d: dict) -> Dataset:
    from .data import ArmRecord

    arms = tuple(ArmRecord(**a) for a in d["arms"])
    labels = tuple(d["study_labels"]) if d.get("study_labels") else None
    return Dataset(endpoint=Endpoint(d["endpoint"]), arms=arms, study_labels=labels)


def _round2(value: float) -> str:
    return format(round(value, 2), "g")


def render_summary_text(
    spec: ModelSpec,
    priors: dict[str, Prior],
    table: diagnostics.SummaryTable,
    divergences: int,
) -> str:
    """Human-readable fit report in the classic print-block layout."""
    mbma = spec.family is ModelFamily.MBMA
    lines = [
        "Model-based meta-analysis using metabayes"
        if mbma
        else "Meta-analysis using metabayes",
        "",
        f"Maximum Rhat: {_round2(table.max_rhat)}",
        f"Minimum Effective Sample Size: {int(round(table.min_ess))}",
        "",
        f"mu prior: {priors['mu'].label()}",
    ]
    if mbma:
        assert spec.dose_response is not None
        for role in DR_ROLES[spec.dose_response]:
            if role == "ED50":
                lines.append(f"ED50 prior:{priors['ED50'].label()}")
            else:
                lines.append(f"{role} prior: {priors[role].label()}")
    else:
        lines.append(f"theta prior: {priors['theta'].label()}")
        if "beta" in priors:
            lines.append(f"beta prior: {priors['beta'].label()}")
    if "tau" in priors:
        lines.append(f"tau prior:{priors['tau'].label()}")
    lines.append("")
    if divergences:
        lines.append(f"Divergent transitions: {divergences}")
        lines.append("")
    if mbma:
        assert spec.dose_response is not None
        lines.append(f"Dose-response function = {spec.dose_response.value}")
        lines.append("")
        for role in DR_ROLES[spec.dose_response]:
            lines.append(diagnostics.format_estimate_block(f"{role} estimates", table.row(role)))
            lines.append("")
    else:
        lines.append(
            diagnostics.format_estimate_block(
                "Treatment effect (theta) estimates", table.row("theta")
            )
        )
        lines.append("")
        if any(r.name.startswith("beta") for r in table.rows):
            for r in table.rows:
                if r.name.startswith("beta"):
                    lines.append(
                        diagnostics.format_estimate_block(
                            f"Regression coefficient ({r.name}) estimates", r
                        )
                    )
                    lines.append("")
    if spec.random_effects:
        lines.append(
            diagnostics.format_estimate_block("Heterogeneity stdev (tau)", table.row("tau"))
        )
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse_arm_vars(text: str) -> dict[str, str]:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise DataError(f"--arm-vars entries must look like role=prefix, got '{piece}'")
        role, prefix = piece.split("=", 1)
        out[role.strip()] = prefix.strip()
    if not out:
        raise DataError("--arm-vars must name at least one role=prefix pair")
    return out


def cmd_convert(args: argparse.Namespace) -> int:
    try:
        wide = parse_csv(args.in_path, n_arms_column=args.n_arms_col)
        dataset = convert_wide_to_long(
            wide, _parse_arm_vars(args.arm_vars), args.endpoint
        )
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    Path(args.out).write_text(write_long_csv(dataset), encoding="utf-8")
    print(f"{dataset.n_studies} studies, {len(dataset.arms)} arms -> {args.out}")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        dataset = _load_dataset(config["data"])
        spec = _build_spec(config["model"], dataset)
        sampler_config = _build_sampler_config(config.get("sampler", {}))
    except (ConfigError, DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR

    try:
        draws = run_chains(spec, dataset, sampler_config)
    except SamplingError as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return EXIT_SAMPLING

    table = diagnostics.summarize(draws)
    priors = default_priors(spec)
    out_dir = Path(config["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {
        "model": _spec_to_dict(spec, priors),
        "sampler": dataclasses.asdict(sampler_config),
        "data": _dataset_to_dict(dataset),
        "diagnostics": {
            "max_rhat": table.max_rhat,
            "min_ess": table.min_ess,
            "divergences": draws.total_divergences,
        },
        "parameters": table.to_json_dict()["parameters"],
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    text = render_summary_text(spec, priors, table, draws.total_divergences)
    (out_dir / "summary.txt").write_text(text + "\n", encoding="utf-8")
    if config["output"].get("draws", True):
        write_draws_csv(draws, out_dir / "draws.csv")
    print(text)
    print(f"artifacts written to {out_dir}")
    if table.max_rhat > RHAT_WARN_LIMIT:
        print(
            f"warning: max R-hat {table.max_rhat:.3f} > {RHAT_WARN_LIMIT}; "
            "treat estimates with caution",
            file=sys.stderr,
        )
        return EXIT_CONVERGENCE
    return EXIT_OK


def _load_fit_dir(fit_dir: Path) -> tuple[dict, PosteriorDraws, ModelSpec, Dataset]:
    summary_path = fit_dir / "summary.json"
    if not summary_path.exists():
        raise ConfigError(f"no summary.json in {fit_dir}; run 'metabayes fit' first")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        spec = _spec_from_dict(summary["model"])
        dataset = _dataset_from_dict(summary["data"])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{summary_path} is not valid JSON: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"{summary_path} has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{summary_path}: {exc}") from None
    draws_path = fit_dir / "draws.csv"
    if not draws_path.exists():
        raise ConfigError(
            f"no draws.csv in {fit_dir}; re-run the fit with output.draws enabled"
        )
    try:
        draws = read_draws_csv(draws_path)
    except ValueError as exc:
        raise ConfigError(f"{draws_path}: {exc}") from None
    return summary, draws, spec, dataset


def cmd_plot(args: argparse.Namespace) -> int:
    fit_dir = Path(args.fit_dir)
    try:
        summary, draws, spec, dataset = _load_fit_dir(fit_dir)
        if args.kind == "forest":
            svg = _forest_svg(args, summary, draws, spec, dataset)
        else:
            svg = _dose_svg(args, summary, draws, spec, dataset)
    except (ConfigError, DataError, ModelError, viz.PlotError, diagnostics.DiagnosticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    out = Path(args.out) if args.out else fit_dir / f"{args.kind}.svg"
    out.write_text(svg, encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def _forest_svg(args, summary, draws, spec: ModelSpec, dataset: Dataset) -> str:
    if spec.family is ModelFamily.MBMA:
        raise ConfigError("forest plots apply to pairwise fits; use 'plot dose'")
    estimates = viz.per_study_estimates(dataset)
    if args.labels:
        labels = tuple(s.strip() for s in args.labels.split(","))
        if len(labels) != len(estimates):
            raise ConfigError(
                f"--labels names {len(labels)} studies but the fit has {len(estimates)}"
            )
    elif dataset.study_labels:
        labels = dataset.study_labels
    else:
        labels = tuple(f"Study {i + 1}" for i in range(len(estimates)))
    table = diagnostics.summarize(draws, ["theta", "tau"])
    theta, tau = table.row("theta"), table.row("tau")
    # deterministic prediction stream, distinct from all chain streams
    rng = np.random.Generator(
        np.random.Philox(
            np.random.SeedSequence(entropy=summary["sampler"]["seed"], spawn_key=(2**31,))
        )
    )
    pred = diagnostics.summarize_chains(
        "theta_star", diagnostics.predict_new_study(draws, rng)
    )
    plot_input = viz.ForestPlotInput(
        labels=labels,
        estimates=tuple(estimates),
        pooled=(theta.q50, theta.q2_5, theta.q97_5),
        prediction=(pred.q50, pred.q2_5, pred.q97_5),
        heterogeneity=(tau.q50, tau.q2_5, tau.q97_5),
    )
    return viz.forest_plot_svg(plot_input, xlab=args.xlab or "Effect")


def _dose_svg(args, summary, draws, spec: ModelSpec, dataset: Dataset) -> str:
    if spec.family is not ModelFamily.MBMA:
        raise ConfigError("dose plots apply to dose-response fits; use 'plot forest'")
    max_dose = spec.max_dose or max(a.dose for a in dataset.arms)
    grid = np.linspace(0.0, float(max_dose), 101)
    bands = diagnostics.dose_curve_bands(draws, spec, grid)
    plot_input = viz.DosePlotInput(bands=bands, points=viz.observed_points(dataset))
    return viz.dose_plot_svg(
        plot_input,
        xlab=args.xlab or "Dose",
        ylab=args.ylab or "Response",
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metabayes",
        description="Bayesian pairwise, meta-regression and dose-response meta-analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="wide CSV -> long (one arm per row) CSV")
    p_convert.add_argument("--in", dest="in_path", required=True, help="input wide CSV")
    p_convert.add_argument(
        "--endpoint", required=True, choices=[e.value for e in Endpoint]
    )
    p_convert.add_argument(
        "--arm-vars",
        required=True,
        help="role=prefix pairs, e.g. 'responders=r,sampleSize=n' (add dose=d for dose data)",
    )
    p_convert.add_argument("--n-arms-col", default=None, help="column with per-row arm counts")
    p_convert.add_argument("--out", required=True, help="output long CSV")
    p_convert.set_defaults(func=cmd_convert)

    p_fit = sub.add_parser("fit", help="fit a model described by a JSON config")
    p_fit.add_argument("--config", required=True, help="path to the run configuration")
    p_fit.set_defaults(func=cmd_fit)

    p_plot = sub.add_parser("plot", help="render a figure from fit artifacts")
    p_plot.add_argument("kind", choices=["forest", "dose"])
    p_plot.add_argument("--fit-dir", required=True, help="directory written by 'fit'")
    p_plot.add_argument("--out", default=None, help="output SVG path")
    p_plot.add_argument("--xlab", default=None)
    p_plot.add_argument("--ylab", default=None)
    p_plot.add_argument("--labels", default=None, help="comma-separated study labels")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
