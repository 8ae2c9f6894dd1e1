"""Command-line interface: convert, fit, plot and the exit-code contract."""

import json
import shutil
import warnings
import xml.etree.ElementTree as ET

import pytest

from metabayes import cli
from metabayes.data import BOUCHER2016_FULL_CSV, BOUCHER2016_PAIRWISE_CSV
from metabayes.sampler import SamplingError


def run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short test warmups warn by design
        return cli.main(argv)


@pytest.fixture()
def wide_csvs(tmp_path):
    t2 = tmp_path / "table2.csv"
    t4 = tmp_path / "table4.csv"
    t2.write_text(BOUCHER2016_PAIRWISE_CSV, encoding="utf-8")
    t4.write_text(BOUCHER2016_FULL_CSV, encoding="utf-8")
    return t2, t4


def write_config(tmp_path, name="cfg.json", **overrides):
    config = {
        "data": {"builtin": "boucher2016_pairwise"},
        "model": {
            "family": "pairwise",
            "likelihood": "binomial",
            "priors": {
                "mu": {"family": "normal", "mean": 0, "sd": 10},
                "theta": {"family": "normal", "mean": 0, "sd": 2.5},
                "tau": {"family": "half_normal", "scale": 0.5},
            },
        },
        "sampler": {"chains": 2, "iter": 700, "warmup": 350, "seed": 1, "target_accept": 0.9},
        "output": {"dir": str(tmp_path / "out")},
    }
    for key, value in overrides.items():
        if value is None:
            config.pop(key, None)
        else:
            config[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, config


class TestSpecSerialization:
    def test_model_spec_json_round_trip(self):
        from metabayes.model import ModelSpec, Prior, default_priors

        spec = ModelSpec(
            "mbma",
            "binary",
            dose_response="sigmoidal",
            non_centered=False,
            priors={"tau": Prior.uniform(0, 5)},
            max_dose=200.0,
        )
        priors = default_priors(spec)
        rebuilt = cli._spec_from_dict(cli._spec_to_dict(spec, priors))
        assert rebuilt.family == spec.family
        assert rebuilt.dose_response == spec.dose_response
        assert rebuilt.non_centered == spec.non_centered
        assert rebuilt.max_dose == spec.max_dose
        assert rebuilt.priors["tau"] == priors["tau"]
        assert rebuilt.priors["ED50"] == priors["ED50"]


class TestConvert:
    def test_pairwise_table_to_long(self, wide_csvs, tmp_path, capsys):
        t2, _ = wide_csvs
        out = tmp_path / "long.csv"
        code = run(
            [
                "convert",
                "--in", str(t2),
                "--endpoint", "binary",
                "--arm-vars", "responders=r,sampleSize=n",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 12
        assert lines[0].startswith("study,arm,dose,responders,sampleSize")
        assert "6 studies, 12 arms" in capsys.readouterr().out

    def test_dose_table_to_long(self, wide_csvs, tmp_path):
        _, t4 = wide_csvs
        out = tmp_path / "long4.csv"
        code = run(
            [
                "convert",
                "--in", str(t4),
                "--endpoint", "binary",
                "--arm-vars", "dose=d,responders=r,sampleSize=n",
                "--n-arms-col", "nd",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 17

    def test_missing_column_names_it(self, wide_csvs, tmp_path, capsys):
        t2, _ = wide_csvs
        code = run(
            [
                "convert",
                "--in", str(t2),
                "--endpoint", "binary",
                "--arm-vars", "responders=zz,sampleSize=n",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "zz" in capsys.readouterr().err

    def test_validation_failure_names_study(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("study,r1,n1,r2,n2\nA,4,73,63,140\nB,99,10,5,10\n", encoding="utf-8")
        code = run(
            [
                "convert",
                "--in", str(bad),
                "--endpoint", "binary",
                "--arm-vars", "responders=r,sampleSize=n",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "study 2" in capsys.readouterr().err


class TestFit:
    def test_fit_writes_artifacts(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        assert run(["fit", "--config", str(cfg_path)]) in (0, 3)
        out = tmp_path / "out"
        text = (out / "summary.txt").read_text()
        assert "theta prior: Normal(0,2.5)" in text
        assert "tau prior:half-normal(0.5)" in text
        assert "mu prior: Normal(0,10)" in text
        assert "Maximum Rhat:" in text and "Minimum Effective Sample Size:" in text
        assert "Treatment effect (theta) estimates" in text
        assert "Heterogeneity stdev (tau)" in text
        summary = json.loads((out / "summary.json").read_text())
        assert summary["model"]["family"] == "pairwise"
        assert {p["name"] for p in summary["parameters"]} >= {"theta", "tau"}
        assert (out / "draws.csv").exists()

    def test_field_order_matches_print_block(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["fit", "--config", str(cfg_path)])
        text = (tmp_path / "out" / "summary.txt").read_text()
        idx = text.index("Treatment effect")
        header = text[idx:].splitlines()[1]
        assert header.split() == ["mean", "2.5%", "50%", "97.5%"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, extras={"oops": 1})
        assert run(["fit", "--config", str(cfg_path)]) == 2
        assert "extras" in capsys.readouterr().err

    def test_prior_name_typo_rejected(self, tmp_path, capsys):
        cfg_path, config = write_config(tmp_path)
        config["model"]["priors"]["thetaa"] = {"family": "normal", "mean": 0, "sd": 1}
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert run(["fit", "--config", str(cfg_path)]) == 2
        assert "thetaa" in capsys.readouterr().err

    def test_prior_parameter_typo_rejected(self, tmp_path, capsys):
        cfg_path, config = write_config(tmp_path)
        config["model"]["priors"]["tau"] = {"family": "half_normal", "scal": 0.5}
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert run(["fit", "--config", str(cfg_path)]) == 2
        assert "scal" in capsys.readouterr().err

    def test_likelihood_endpoint_mismatch(self, tmp_path, capsys):
        long_csv = tmp_path / "cont.csv"
        long_csv.write_text(
            "study,arm,dose,responders,sampleSize,mean,std_err,count,exposure\n"
            "1,0,,,,0.1,0.5,,\n1,1,,,,0.9,0.5,,\n",
            encoding="utf-8",
        )
        cfg_path, config = write_config(
            tmp_path, data={"path": str(long_csv), "format": "long"}
        )
        assert run(["fit", "--config", str(cfg_path)]) == 2
        assert "binomial" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run(["fit", "--config", str(bad)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_convergence_warning_exit_code(self, tmp_path, capsys):
        cfg_path, _ = write_config(
            tmp_path,
            sampler={"chains": 2, "iter": 60, "warmup": 40, "seed": 1},
        )
        assert run(["fit", "--config", str(cfg_path)]) == 3
        assert "R-hat" in capsys.readouterr().err

    def test_sampling_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        cfg_path, _ = write_config(tmp_path)

        def boom(*args, **kwargs):
            raise SamplingError("every warmup transition diverged")

        monkeypatch.setattr(cli, "run_chains", boom)
        assert run(["fit", "--config", str(cfg_path)]) == 4
        assert "diverged" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a, _ = write_config(tmp_path, name="a.json", output={"dir": str(tmp_path / "a")})
        cfg_b, _ = write_config(tmp_path, name="b.json", output={"dir": str(tmp_path / "b")})
        run(["fit", "--config", str(cfg_a)])
        run(["fit", "--config", str(cfg_b)])
        for name in ("summary.json", "draws.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.fixture()
def pairwise_fit(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    run(["fit", "--config", str(cfg_path)])
    return tmp_path / "out"


@pytest.fixture()
def mbma_fit(tmp_path):
    cfg_path, _ = write_config(
        tmp_path,
        name="mbma.json",
        data={"builtin": "boucher2016_full"},
        model={
            "family": "mbma",
            "likelihood": "binomial",
            "dose_response": "emax",
            "priors": {"ED50": {"family": "functional"}},
        },
        sampler={"chains": 2, "iter": 700, "warmup": 350, "seed": 1, "target_accept": 0.9},
        output={"dir": str(tmp_path / "mbma_out")},
    )
    run(["fit", "--config", str(cfg_path)])
    return tmp_path / "mbma_out"


class TestPlot:
    def test_forest_plot_from_fit(self, pairwise_fit, tmp_path):
        out = tmp_path / "forest.svg"
        code = run(
            ["plot", "forest", "--fit-dir", str(pairwise_fit), "--xlab", "log-OR", "--out", str(out)]
        )
        assert code == 0
        svg = out.read_text()
        ET.fromstring(svg)
        assert svg.count("row-marker") == 8
        assert "Edwards (2000)" in svg

    def test_forest_label_override_must_cover_studies(self, pairwise_fit, capsys):
        code = run(["plot", "forest", "--fit-dir", str(pairwise_fit), "--labels", "a,b"])
        assert code == 2
        assert "6" in capsys.readouterr().err

    def test_dose_plot_on_pairwise_fit_rejected(self, pairwise_fit, capsys):
        assert run(["plot", "dose", "--fit-dir", str(pairwise_fit)]) == 2
        assert "dose" in capsys.readouterr().err.lower()

    def test_missing_draws_hint(self, pairwise_fit, capsys):
        (pairwise_fit / "draws.csv").unlink()
        assert run(["plot", "forest", "--fit-dir", str(pairwise_fit)]) == 2
        assert "output.draws" in capsys.readouterr().err

    def test_mbma_summary_mentions_dose_response(self, mbma_fit):
        text = (mbma_fit / "summary.txt").read_text()
        assert "Dose-response function = emax" in text
        assert "ED50 prior:functional(-2.5,1.8)" in text
        assert "Emax estimates" in text and "ED50 estimates" in text

    def test_dose_plot_from_mbma_fit(self, mbma_fit):
        assert run(["plot", "dose", "--fit-dir", str(mbma_fit)]) == 0
        svg = (mbma_fit / "dose.svg").read_text()
        ET.fromstring(svg)
        assert svg.count("observed-point") == 17
        assert svg.count("band-95") == 1 and svg.count("band-50") == 1

    def test_forest_plot_on_mbma_fit_rejected(self, mbma_fit, capsys):
        assert run(["plot", "forest", "--fit-dir", str(mbma_fit)]) == 2
        assert "forest" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fit_template(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("template")
    cfg_path, _ = write_config(tmp)
    run(["fit", "--config", str(cfg_path)])
    return tmp / "out"


def _truncate_last_row(path):
    text = path.read_text()
    path.write_text(text[: text.rindex(",")])


def _edit_summary(fit_dir, edit):
    path = fit_dir / "summary.json"
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))


MALFORMED = {
    "draws_bad_header": lambda d: (d / "draws.csv").write_text("x,y\n1,2\n"),
    "draws_truncated": lambda d: _truncate_last_row(d / "draws.csv"),
    "summary_not_json": lambda d: (d / "summary.json").write_text("{not json"),
    "summary_unknown_family": lambda d: _edit_summary(
        d, lambda s: s["model"].update(family="foo")
    ),
    "summary_unknown_arm_field": lambda d: _edit_summary(
        d, lambda s: s["data"]["arms"][0].update(foo=1)
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", [*MALFORMED, "covariates_not_numbers"])
    def test_exits_2_with_one_line_error(self, case, fit_template, tmp_path, capsys):
        if case == "covariates_not_numbers":
            cfg_path, _ = write_config(
                tmp_path,
                model={"family": "meta_regression", "covariates": ["a", "b", "c", "d", "e", "f"]},
            )
            argv = ["fit", "--config", str(cfg_path)]
        else:
            fit_dir = shutil.copytree(fit_template, tmp_path / "fit")
            MALFORMED[case](fit_dir)
            argv = ["plot", "forest", "--fit-dir", str(fit_dir)]
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
