"""The metabayes benchmark.

    python3 bench/run.py --workload canonical --seed 1 --seconds 30 --trace 0

Runs one workload (``canonical``, ``rare_events`` or ``cli_mbma``; see
README.md), checks its outputs against computations made apart from the
program, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and once
with spans around the public functions, and reports the per-layer
metrics.  The package is imported from ``src/`` of the checkout holding
this file; without it the benchmark exits with an error.
"""

import os
import sys
import time


def _seconds_since_process_start() -> float:
    """Wall time since this process was created (Linux /proc, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


# set-up time runs from process creation: the interpreter's start, the
# import of metabayes and the loading of the workload's data
_STARTUP_S = _seconds_since_process_start()
_T0 = time.perf_counter()

# one process, no threads: single-threaded BLAS, no chain thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("METABAYES_THREADS", None)

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "metabayes" / "__init__.py").is_file():
    sys.exit(f"error: no metabayes package under {SRC}; run from a metabayes checkout")
sys.path.insert(0, str(SRC))
_IMPORT_START_NS = time.perf_counter_ns()
import metabayes as mb  # noqa: E402

_IMPORT_END_NS = time.perf_counter_ns()
_IMPORTED_AT = time.perf_counter()
if Path(mb.__file__).resolve().parent != SRC / "metabayes":
    sys.exit(f"error: imported metabayes from {mb.__file__}, not from {SRC}")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

from spans import DATA_SPANS, SpanTable, Tracer, grad_microbench  # noqa: E402
from workloads import WORKLOADS, RunResult  # noqa: E402

# Seconds of one round of each workload on the reference machine (see
# README.md): a run measures as many whole rounds as fit in --seconds, and
# at least one.
ROUND_SECONDS = {"canonical": 39.0, "rare_events": 24.0, "cli_mbma": 24.0}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # accepted for the benchmark's command line; every workload's inputs
    # and sampler seeds are fixed (see README.md)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _rounds(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_SECONDS[workload]))


def _run_rounds(workload, rounds: int, traced: bool) -> list[RunResult]:
    return [workload.run(mb, traced) for _ in range(rounds)]


def _report(results: list[RunResult], workload) -> tuple[bool, list[str]]:
    """Checks on the first round, then the self-test on shifted draws."""
    lines, ok = [], True
    for c in workload.check(results[0], perturb=False):
        ok &= c.ok
        lines.append(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    for c in workload.check(results[0], perturb=True):
        if c.draw_based:
            ok &= not c.ok
            verdict = "PASS" if not c.ok else "FAIL"
            lines.append(f"selftest {verdict} {c.name} fails on shifted draws: {c.detail}")
    return ok, lines


def _end_to_end(results: list[RunResult], setup_s: float) -> dict:
    fit_s = sum(r.fit_s for r in results)
    ess = sum(r.min_ess for r in results)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(r.wall_s for r in results), "unit": "s"},
        "min_ess_per_s": {"value": ess / fit_s if fit_s else 0.0, "unit": "1/s"},
        "peak_rss_mb": {"value": max(r.peak_rss_mb for r in results), "unit": "MB"},
    }


def _per_layer(table: SpanTable, results, traced_wall: float, plain_wall: float, micro: dict) -> dict:
    def m(value, unit):
        return {"value": value, "unit": unit}

    grads = table.mask("posterior.logp_and_grad")
    grad_calls = int(grads.sum())
    transitions = table.mask("sampler.hmc_transition")
    n_transitions = int(transitions.sum())
    c = table.counters
    fit_s = c["sampler.fit_ns"] / 1e9
    build_s = table.total_s("posterior.build")
    sampling_s = c["sampler.sampling_ns"] / 1e9
    min_ess = sum(r.min_ess for r in results)
    imports = table.duration[table.mask("package.import")] / 1e9
    out = {
        "package.import_s": m(float(np.median(imports)) if imports.size else 0.0, "s"),
        "data.load_s": m(table.outermost_s(DATA_SPANS), "s"),
        "posterior.build_s": m(build_s, "s"),
        "posterior.grad_calls": m(grad_calls, "count"),
        "posterior.grad_us": m(
            float(np.median(table.duration[grads])) / 1e3 if grad_calls else 0.0, "us"
        ),
        "sampler.transitions": m(n_transitions, "count"),
        "sampler.overhead_us": m(
            float(table.self_time[transitions].sum()) / 1e3 / n_transitions if n_transitions else 0.0,
            "us",
        ),
        "sampler.grads_per_draw": m(
            grad_calls / c["sampler.kept_draws"] if c["sampler.kept_draws"] else 0.0, "count"
        ),
        "sampler.divergences": m(int(c["sampler.divergences"]), "count"),
        "sampler.min_ess": m(min_ess, "draws"),
        "sampler.ess_per_1k_grads": m(1e3 * min_ess / grad_calls if grad_calls else 0.0, "draws"),
        "sampler.warmup_s": m(fit_s - build_s - sampling_s, "s"),
        "sampler.sampling_s": m(sampling_s, "s"),
        "sampler.write_draws_s": m(table.total_s("sampler.write_draws_csv"), "s"),
        "sampler.read_draws_s": m(table.total_s("sampler.read_draws_csv"), "s"),
        "diagnostics.summarize_s": m(table.total_s("diagnostics.summarize"), "s"),
        "diagnostics.dose_bands_s": m(table.total_s("diagnostics.dose_curve_bands"), "s"),
        "viz.dose_svg_s": m(table.total_s("viz.dose_plot_svg"), "s"),
        "trace.overhead_s": m(traced_wall - plain_wall, "s"),
    }
    times = results[0].extra.get("times", {})
    for command in ("convert", "fit", "plot"):
        out[f"cli.{command}_s"] = m(times.get(command, 0.0), "s")
    out["cli.draws_csv_mb"] = m(results[0].extra.get("draws_csv_mb", 0.0), "MB")
    for name, us in micro.items():
        out[f"posterior.grad_us.{name}"] = m(us, "us")
    return out


def _microbench(workload, out_root: Path) -> dict[str, float]:
    """Microseconds per gradient at fixed points, for the models of every workload."""
    out = {}
    for cls in WORKLOADS.values():
        other = workload
        if not isinstance(workload, cls):
            other = cls(out_root / f"microbench-{cls.name}")
            other.prepare()
            other.load(mb)
        for name, spec, dataset in other.micro_models(mb):
            out[name] = grad_microbench(mb.Posterior(spec, dataset))
    return out


def _same_outputs(a: list[RunResult], b: list[RunResult]) -> bool:
    """Tracing must not change a single draw."""
    for ra, rb in zip(a, b):
        if [f.label for f in ra.fits] != [f.label for f in rb.fits]:
            return False
        for fa, fb in zip(ra.fits, rb.fits):
            if any(not np.array_equal(fa.draws[k], fb.draws[k]) for k in fa.draws):
                return False
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    out_root = ROOT / ".bench_out"
    workload_dir = out_root / args.workload
    workload = WORKLOADS[args.workload](workload_dir)
    workload.prepare()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.record("package.import", _IMPORT_START_NS, _IMPORT_END_NS)
        tracer.install()
    load_start = time.perf_counter()
    workload.load(mb)
    load_s = time.perf_counter() - load_start
    if tracer:
        tracer.uninstall()
    setup_s = _STARTUP_S + (_IMPORTED_AT - _T0) + load_s

    rounds = _rounds(args.workload, args.seconds)
    results = _run_rounds(workload, rounds, traced=False)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)

    if not tracer:
        metrics = _end_to_end(results, setup_s)
        ok, lines = _report(results, workload)
    else:
        plain_wall = sum(r.wall_s for r in results)
        tracer.install()
        traced = _run_rounds(workload, rounds, traced=True)
        tracer.uninstall()
        traced_wall = sum(r.wall_s for r in traced)
        dumps = [tracer.to_json()]
        for path in getattr(workload, "span_files", []):
            dumps.append(json.loads(path.read_text(encoding="utf-8")))
        table = SpanTable(dumps)
        micro = _microbench(workload, out_root)
        metrics = _per_layer(table, traced, traced_wall, plain_wall, micro)
        table.write(workload_dir / "trace.json", {"metrics": metrics})
        ok, lines = _report(traced, workload)
        same = _same_outputs(results, traced)
        ok &= same
        lines.append(f"check {'PASS' if same else 'FAIL'} traced draws equal untraced draws")

    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": bool(ok), "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
