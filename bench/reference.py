"""Reference figures for bench/README.md (not run by the benchmark command).

    python3 bench/reference.py [--fits]

Prints microseconds per ``Posterior.logp_and_grad`` for every case of
``tests/helpers.all_spec_variants()``.  With ``--fits`` it also times the
four canonical fits at the acceptance suite's settings (4 chains x 4000
iterations, seed 1) and compares the benchmark's ESS and split R-hat with
``metabayes.diagnostics`` on them.
"""

import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("METABAYES_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import metabayes as mb  # noqa: E402
from helpers import all_spec_variants  # noqa: E402

import mcmc_stats  # noqa: E402
from spans import grad_microbench  # noqa: E402
from workloads import REPORTED, Canonical  # noqa: E402


def gradients() -> None:
    print(f"{'case':42} {'dim':>4} {'us/grad':>8}")
    for label, spec, dataset in all_spec_variants():
        post = mb.Posterior(spec, dataset)
        print(f"{label:42} {post.dim:4d} {grad_microbench(post):8.1f}")


def canonical_fits() -> None:
    workload = Canonical(ROOT / ".bench_out" / "reference")
    workload.load(mb)
    config = mb.SamplerConfig(chains=4, iter=4000, warmup=2000, seed=1, target_accept=0.95)
    worst_ess, worst_rhat = 0.0, 0.0
    for label, spec, dataset in workload.models(mb):
        start = time.perf_counter()
        draws = mb.run_chains(spec, dataset, config)
        fit_s = time.perf_counter() - start
        table = mb.summarize(draws)
        parts = []
        for name in REPORTED:
            if name not in draws.parameter_names:
                continue
            x = draws.constrained(name)
            own_ess, own_rhat = mcmc_stats.ess(x), mcmc_stats.split_rhat(x)
            row = table.row(name)
            worst_ess = max(worst_ess, abs(own_ess - row.ess) / row.ess)
            worst_rhat = max(worst_rhat, abs(own_rhat - row.rhat))
            parts.append(f"{name} ess {own_ess:.1f}/{row.ess:.1f} rhat {own_rhat:.5f}/{row.rhat:.5f}")
        print(f"{label:16} {fit_s:6.1f} s  " + "; ".join(parts))
    print(f"largest relative ESS difference {worst_ess:.1e}, R-hat difference {worst_rhat:.1e}")


if __name__ == "__main__":
    gradients()
    if "--fits" in sys.argv[1:]:
        canonical_fits()
