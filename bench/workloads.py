"""The benchmark's workloads.

Each workload has four phases.  ``prepare`` makes the inputs and writes
them as files (never timed); ``load`` reads them through metabayes (part
of the timed set-up); ``run`` is the timed workload; and ``check``
compares its outputs with computations made apart from the program
(never timed).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import mcmc_stats
import oracle
import simulate
from checks import Check

REPORTED = ("theta", "tau", "beta", "Emax", "ED50")
# the self-test moves draws by this many posterior sds
SHIFT_SD = 2.0
BENCH_DIR = Path(__file__).resolve().parent

# The topiramate pairwise table (Boucher & Bennetts 2016) as published;
# the benchmark keeps its own copy so that its oracle does not read data
# through the program under test.
TOPIRAMATE = {
    "y0": (4, 8, 9, 5, 4, 4),
    "n0": (73, 116, 143, 113, 21, 15),
    "y1": (63, 53, 81, 57, 13, 9),
    "n1": (140, 113, 144, 117, 19, 15),
}


@dataclass
class FitRecord:
    """Draws of the reported quantities of one fit, each (chains, draws)."""

    label: str
    fit_s: float
    draws: dict[str, np.ndarray]

    @property
    def min_ess(self) -> float:
        return min(mcmc_stats.ess(x) for x in self.draws.values())


@dataclass
class RunResult:
    wall_s: float
    fits: list[FitRecord]
    attempted: int
    failed: int
    peak_rss_mb: float
    extra: dict = field(default_factory=dict)

    @property
    def fit_s(self) -> float:
        return sum(f.fit_s for f in self.fits)

    @property
    def min_ess(self) -> float:
        return sum(f.min_ess for f in self.fits)


def _reported(draws) -> dict[str, np.ndarray]:
    return {n: draws.constrained(n) for n in REPORTED if n in draws.parameter_names}


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _fit_in_process(mb, label, spec, dataset, config) -> FitRecord | None:
    """One fit as a user runs it: run_chains, then summarize.

    A fit that raises is a failed operation: it is reported and skipped.
    """
    start = time.perf_counter()
    try:
        draws = mb.run_chains(spec, dataset, config)
    except Exception:  # noqa: BLE001 - every fit failure is counted
        print(f"fit {label} failed:", file=sys.stderr)
        traceback.print_exc()
        return None
    fit_s = time.perf_counter() - start
    mb.summarize(draws)
    return FitRecord(label, fit_s, _reported(draws))


def _in_process_result(start: float, fits: list) -> RunResult:
    wall = time.perf_counter() - start
    done = [f for f in fits if f is not None]
    return RunResult(
        wall, done, len(fits), len(fits) - len(done), _peak_rss_mb(resource.RUSAGE_SELF)
    )


class Workload:
    """Inputs and artifacts live under ``out_dir``.

    No workload reads --seed: each has fixed inputs and sampler seeds (see
    the class docstrings and README.md for why).
    """

    name = ""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        pass


def _pairwise_priors(mb, random_effects: bool) -> dict:
    priors = {"mu": mb.Prior.normal(0.0, 10.0), "theta": mb.Prior.normal(0.0, 2.5)}
    if random_effects:
        priors["tau"] = mb.Prior.half_normal(0.5)
    return priors


# ---------------------------------------------------------------------------
# canonical: the four published topiramate fits of the acceptance suite
# ---------------------------------------------------------------------------


class Canonical(Workload):
    """The acceptance suite's four fits at its seed; --seed is not used.

    Its data are published and its sampler seed is the suite's (1), so the
    work is the same in every run.  Iterations are halved from the suite's
    4 x 4000 so that a traced run (two passes) stays well inside 180 s.
    """

    name = "canonical"
    SAMPLER = {"chains": 4, "iter": 2000, "warmup": 1000, "seed": 1, "target_accept": 0.95}

    def load(self, mb) -> None:
        self.pairwise = mb.builtin_dataset("boucher2016_pairwise")
        self.full = mb.builtin_dataset("boucher2016_full")

    def models(self, mb) -> list[tuple[str, object, object]]:
        pairwise = self.pairwise
        duration = tuple(
            (1.0,) if v == "long" else (0.0,) for v in pairwise.covariates["duration"]
        )
        re = _pairwise_priors(mb, True)
        emax_priors = {
            "mu": mb.Prior.normal(0.0, 10.0),
            "Emax": mb.Prior.normal(0.0, 10.0),
            "ED50": mb.Prior.functional_ed50(),
            "tau": mb.Prior.half_normal(0.5),
        }
        return [
            ("pairwise_ncp", mb.ModelSpec("pairwise", "binary", priors=re), pairwise),
            (
                "pairwise_c",
                mb.ModelSpec("pairwise", "binary", non_centered=False, priors=re),
                pairwise,
            ),
            (
                "meta_regression",
                mb.ModelSpec(
                    "meta_regression",
                    "binary",
                    covariates=duration,
                    priors={**re, "beta": mb.Prior.normal(0.0, 100.0)},
                ),
                pairwise,
            ),
            (
                "emax",
                mb.ModelSpec("mbma", "binary", dose_response="emax", priors=emax_priors),
                self.full,
            ),
        ]

    micro_models = models

    def run(self, mb, traced: bool = False) -> RunResult:
        config = mb.SamplerConfig(**self.SAMPLER)
        start = time.perf_counter()
        fits = [_fit_in_process(mb, label, spec, ds, config) for label, spec, ds in self.models(mb)]
        return _in_process_result(start, fits)

    def check(self, result: RunResult, perturb: bool) -> list[Check]:
        plain = {f.label: f.draws for f in result.fits}
        fits = {k: checks.shifted(v, SHIFT_SD) for k, v in plain.items()} if perturb else plain
        truth = oracle.random_effects(*oracle.study_profiles(**TOPIRAMATE))
        out = []
        for label in ("pairwise_ncp", "pairwise_c"):
            if label in fits:
                out += checks.against_oracle(label, fits[label], truth)
        if "pairwise_c" in fits and "pairwise_ncp" in fits:
            # under perturbation only one side moves
            out += checks.agree("centered vs non-centered", fits["pairwise_c"], plain["pairwise_ncp"])
        for label in ("meta_regression", "emax"):
            if label in fits:
                out += checks.published(label, label, fits[label])
        return out


# ---------------------------------------------------------------------------
# rare_events: few-study replicates with 1-5 % event rates
# ---------------------------------------------------------------------------


class RareEvents(Workload):
    """Six few-study replicates, each fitted with and without random effects.

    --seed is not used.  The replicate tables are simulated from SEED, the
    first seed whose tables include two double-zero studies, and fit i runs
    at sampler seed 1000 * SEED + i.  With --seed setting the sampler seeds
    instead, min-ESS per second spread by 23 % and wall time by 15 % over
    ten seeds (interquartile range over median), too close to any bound
    the benchmark may set; see README.md.

    One more fit per round has fixed inputs: the common-effect model on a
    four-study table with arms of 455-1200 patients, at sampler seed 1.  It
    fails every time with an OverflowError in ``hmc_transition`` (see
    CHANGES.md) and is counted in ``failed``.  The replicates keep their
    arms at 20-100 patients, where that fault was not seen in 1,440 fits.
    """

    name = "rare_events"
    SEED = 2
    SAMPLER = {"chains": 4, "iter": 1000, "warmup": 500, "target_accept": 0.95}
    LARGE_ARMS = simulate.PairwiseReplicate(
        y0=(3, 0, 9, 1), n0=(812, 455, 1200, 640), y1=(6, 2, 14, 4), n1=(790, 470, 1185, 655)
    )

    def prepare(self) -> None:
        self.replicates = simulate.rare_event_replicates(self.SEED)
        self.large_arms_path = self.out_dir / "large-arms.csv"
        self.large_arms_path.write_text(self.LARGE_ARMS.wide_csv(), encoding="utf-8")
        self.paths = []
        for i, rep in enumerate(self.replicates, start=1):
            path = self.out_dir / f"replicate-{i}.csv"
            path.write_text(rep.wide_csv(), encoding="utf-8")
            self.paths.append(path)

    def load(self, mb) -> None:
        arm_vars = {"responders": "r", "sampleSize": "n"}

        def read(path):
            return mb.convert_wide_to_long(mb.parse_csv(path), arm_vars, "binary", label_column="study")

        self.datasets = [read(p) for p in self.paths]
        self.large_arms = read(self.large_arms_path)

    @staticmethod
    def _specs(mb) -> list[tuple[str, object]]:
        return [
            (
                "random" if re else "common",
                mb.ModelSpec(
                    "pairwise", "binary", random_effects=re, priors=_pairwise_priors(mb, re)
                ),
            )
            for re in (True, False)
        ]

    def micro_models(self, mb) -> list[tuple[str, object, object]]:
        largest = max(self.datasets, key=lambda ds: ds.n_studies)
        return [(f"rare_{kind}", spec, largest) for kind, spec in self._specs(mb)]

    def run(self, mb, traced: bool = False) -> RunResult:
        start = time.perf_counter()
        fits = []
        for i, ds in enumerate(self.datasets):
            for kind, spec in self._specs(mb):
                config = mb.SamplerConfig(seed=1000 * self.SEED + len(fits), **self.SAMPLER)
                fits.append(_fit_in_process(mb, f"replicate {i + 1} {kind}", spec, ds, config))
        _, common = self._specs(mb)[1]
        config = mb.SamplerConfig(seed=1, **self.SAMPLER)
        fits.append(_fit_in_process(mb, "large arms common", common, self.large_arms, config))
        return _in_process_result(start, fits)

    def check(self, result: RunResult, perturb: bool) -> list[Check]:
        fits = {f.label: f.draws for f in result.fits}
        tables = [(f"replicate {i}", rep) for i, rep in enumerate(self.replicates, start=1)]
        tables.append(("large arms", self.LARGE_ARMS))
        out = []
        for name, rep in tables:
            kinds = [k for k in ("random", "common") if f"{name} {k}" in fits]
            if not kinds:
                continue
            profiles = oracle.study_profiles(rep.y0, rep.n0, rep.y1, rep.n1)
            for kind in kinds:
                truth = (oracle.random_effects if kind == "random" else oracle.common_effect)(*profiles)
                draws = fits[f"{name} {kind}"]
                if perturb:
                    draws = checks.shifted(draws, SHIFT_SD)
                out += checks.against_oracle(f"{name} {kind}", draws, truth)
        return out


# ---------------------------------------------------------------------------
# cli_mbma: convert, fit and plot a simulated dose-response meta-analysis
# ---------------------------------------------------------------------------


class CliMbma(Workload):
    """The CLI path: convert, fit and plot, each command its own process.

    --seed is not used: the data are simulated from seed 1 and the fit runs
    at sampler seed 1.  With one fit per run nothing pools, and seeded data
    moved its fit time and min-ESS by about 10 % each from seed to seed.
    The fit uses the sampler's default target acceptance and starts its
    chains within 0.5 of zero (``init_radius``, a setting of the run
    configuration): from the default 2.0, 14 of 60 seeds of such data
    failed with the OverflowError that rare_events keeps as its failing
    fit (see CHANGES.md).
    """

    name = "cli_mbma"
    SEED = 1
    SAMPLER = {"chains": 4, "iter": 3000, "warmup": 1500, "seed": SEED, "init_radius": 0.5}
    TRUTH = {"Emax": simulate.MBMA_EMAX, "ED50": simulate.MBMA_ED50, "tau": simulate.MBMA_TAU}
    COVER_Z = 4.0

    def __init__(self, out_dir: Path):
        super().__init__(out_dir)
        self.wide = out_dir / "wide.csv"
        self.long = out_dir / "long.csv"
        self.fit_dir = out_dir / "fit"
        self.svg = out_dir / "dose.svg"
        self.config = out_dir / "run.json"

    def prepare(self) -> None:
        self.arms = simulate.mbma_arms(self.SEED)
        self.wide.write_text(simulate.mbma_wide_csv(self.arms), encoding="utf-8")
        config = {
            "data": {"path": str(self.long), "format": "long", "endpoint": "binary"},
            "model": {"family": "mbma", "likelihood": "binomial", "dose_response": "emax"},
            "sampler": self.SAMPLER,
            "output": {"dir": str(self.fit_dir), "draws": True},
        }
        self.config.write_text(json.dumps(config, indent=2), encoding="utf-8")

    def load(self, mb) -> None:
        wide = mb.parse_csv(self.wide, n_arms_column="nd")
        self.dataset = mb.convert_wide_to_long(
            wide, {"dose": "d", "responders": "r", "sampleSize": "n"}, "binary"
        )

    def micro_models(self, mb) -> list[tuple[str, object, object]]:
        return [("cli_emax", mb.ModelSpec("mbma", "binary", dose_response="emax"), self.dataset)]

    def commands(self) -> list[tuple[str, list[str]]]:
        return [
            (
                "convert",
                [
                    "convert", "--in", str(self.wide), "--endpoint", "binary",
                    "--arm-vars", "dose=d,responders=r,sampleSize=n",
                    "--n-arms-col", "nd", "--out", str(self.long),
                ],
            ),
            ("fit", ["fit", "--config", str(self.config)]),
            (
                "plot",
                [
                    "plot", "dose", "--fit-dir", str(self.fit_dir), "--out", str(self.svg),
                    "--xlab", "dose (mg)", "--ylab", "event probability",
                ],
            ),
        ]

    def run(self, mb, traced: bool = False) -> RunResult:
        env = child_env()
        for stale in (self.long, self.svg, self.fit_dir / "draws.csv", self.fit_dir / "summary.json"):
            stale.unlink(missing_ok=True)
        self.span_files = []
        times, codes = {}, {}
        start = time.perf_counter()
        for name, args in self.commands():
            if traced:
                spans = self.out_dir / f"spans-{name}.json"
                self.span_files.append(spans)
                cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans), *args]
            else:
                cmd = [sys.executable, "-m", "metabayes.cli", *args]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            times[name] = time.perf_counter() - t0
            codes[name] = proc.returncode
            if proc.returncode:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
        wall = time.perf_counter() - start
        fits = []
        draws_csv = self.fit_dir / "draws.csv"
        if codes["fit"] == 0:
            fits.append(FitRecord("cli fit", times["fit"], read_draws(draws_csv, REPORTED)))
        return RunResult(
            wall,
            fits,
            attempted=len(codes),
            failed=sum(1 for c in codes.values() if c != 0),
            peak_rss_mb=_peak_rss_mb(resource.RUSAGE_CHILDREN),
            extra={
                "times": times,
                "codes": codes,
                "draws_csv_mb": draws_csv.stat().st_size / 1e6 if draws_csv.exists() else 0.0,
            },
        )

    def check(self, result: RunResult, perturb: bool) -> list[Check]:
        codes = result.extra["codes"]
        out = [Check("cli commands exit 0", not any(codes.values()), str(codes), False)]
        if any(codes.values()):
            return out
        names, per_chain = read_all_draws(self.fit_dir / "draws.csv")
        draws = {n: per_chain[:, :, j] for j, n in enumerate(names)}
        truth_draws = {n: draws[n] for n in self.TRUTH}
        if perturb:
            # a coverage check with a COVER_Z sd tolerance fails only when the
            # draws move further than that from wherever they started
            truth_draws = checks.shifted(truth_draws, 2 * self.COVER_Z + SHIFT_SD)
            draws = checks.shifted(draws, SHIFT_SD)
        out += checks.covers_truth("cli fit", truth_draws, self.TRUTH, self.COVER_Z)
        out.append(self._summary_matches(draws))
        out += self._dose_plot(draws)
        return out

    def _summary_matches(self, draws: dict[str, np.ndarray]) -> Check:
        summary = json.loads((self.fit_dir / "summary.json").read_text(encoding="utf-8"))
        worst, where = 0.0, ""
        for row in summary["parameters"]:
            x = draws[row["name"]].ravel()
            for stat in ("mean", "q2_5", "q50", "q97_5"):
                want = checks.statistic(x, stat)
                err = abs(row[stat] - want) / max(1.0, abs(want))
                if err > worst:
                    worst, where = err, f"{row['name']}.{stat}"
        return Check(
            f"summary.json means and quantiles of {len(summary['parameters'])} parameters "
            "equal draws.csv",
            worst <= 1e-12,
            f"worst relative error {worst:.1e} ({where or 'none'})",
        )

    def _dose_plot(self, draws: dict[str, np.ndarray]) -> list[Check]:
        ns = {"svg": "http://www.w3.org/2000/svg"}
        root = ET.parse(self.svg).getroot()

        def points(tag: str, cls: str) -> np.ndarray:
            el = [e for e in root.iterfind(f"svg:{tag}", ns) if e.get("class") == cls]
            pairs = el[0].get("points").split()
            return np.array([[float(v) for v in p.split(",")] for p in pairs])

        n_points = sum(1 for e in root.iterfind("svg:circle", ns) if e.get("class") == "observed-point")
        band95, band50 = points("polygon", "band-95"), points("polygon", "band-50")
        median = points("polyline", "median-curve")
        g = median.shape[0]
        # polygons run along the upper edge, then back along the lower one
        drawn = np.stack(
            [band95[g:][::-1, 1], band50[g:][::-1, 1], median[:, 1], band50[:g, 1], band95[:g, 1]]
        )
        own = own_dose_bands(draws, self.arms, g)
        # the drawn bands are an affine image of the recomputed ones
        design = np.stack([np.ones(own.size), own.ravel()], axis=1)
        coef, *_ = np.linalg.lstsq(design, drawn.ravel(), rcond=None)
        resid = float(np.max(np.abs(design @ coef - drawn.ravel())))
        values = (drawn - coef[0]) / coef[1] if coef[1] != 0 else drawn
        # pixel y grows downwards: each higher quantile is drawn higher up
        nested = bool(np.all(np.diff(drawn, axis=0) <= 1e-3))
        return [
            Check(
                "dose bands drawn equal bands recomputed from draws.csv",
                resid <= 0.01 and coef[1] < 0,
                f"max pixel residual {resid:.2e}, slope {coef[1]:.1f} px per unit",
            ),
            Check(
                "dose SVG has one observed point per arm",
                n_points == len(self.arms),
                f"{n_points} points, {len(self.arms)} arms",
                False,
            ),
            Check("dose bands are nested", nested, "2.5 <= 25 <= 50 <= 75 <= 97.5 %", False),
            Check(
                "dose bands lie in [0, 1]",
                bool(np.all(values >= -1e-6) and np.all(values <= 1 + 1e-6)),
                f"range [{values.min():.4f}, {values.max():.4f}]",
                False,
            ),
        ]


def own_dose_bands(draws: dict[str, np.ndarray], arms, n_grid: int) -> np.ndarray:
    """Type-7 quantile bands of the population Emax curve, shape (5, n_grid).

    Rows: 2.5, 25, 50, 75, 97.5 %.  The curve of a draw is the inverse
    logit of the mean study baseline plus Emax * d / (ED50 + d), on an
    even grid from 0 to the largest dose.
    """
    grid = np.linspace(0.0, max(a.dose for a in arms), n_grid)
    mu = np.stack([draws[n].ravel() for n in draws if n.startswith("mu[")])
    base = mu.mean(axis=0)
    emax, ed50 = draws["Emax"].ravel(), draws["ED50"].ravel()
    curves = 1.0 / (1.0 + np.exp(-(base[:, None] + emax[:, None] * grid / (ed50[:, None] + grid))))
    return np.array(
        [[checks.quantile7(curves[:, j], p) for j in range(n_grid)]
         for p in (0.025, 0.25, 0.5, 0.75, 0.975)]
    )


def read_all_draws(path: Path) -> tuple[list[str], np.ndarray]:
    """A draws.csv read with numpy: names and an array (chains, draws, names)."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")[2:]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    chains = table[:, 0].astype(int)
    per_chain = [table[chains == c, 2:] for c in np.unique(chains)]
    return names, np.stack(per_chain)


def read_draws(path: Path, wanted) -> dict[str, np.ndarray]:
    names, per_chain = read_all_draws(path)
    return {n: per_chain[:, :, names.index(n)] for n in wanted if n in names}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (Canonical, RareEvents, CliMbma)}
