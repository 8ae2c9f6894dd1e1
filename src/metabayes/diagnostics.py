"""Convergence diagnostics, posterior summaries and derived quantities.

R-hat is the classic split potential-scale-reduction factor; the
effective sample size uses Geyer's initial monotone positive-sequence
truncation of the autocorrelation sums on split chains.  Quantiles use
type-7 (linear) interpolation throughout so external oracles can match
them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Link, ModelFamily, ModelSpec, _dose_response_kernel
from .sampler import PosteriorDraws

#: Finite stand-in for the unbounded R-hat of chains stuck at distinct values.
RHAT_DISJOINT = 1e6


class DiagnosticsError(ValueError):
    """Diagnostic requested on unsuitable draws."""


# ---------------------------------------------------------------------------
# Split-chain helpers
# ---------------------------------------------------------------------------


def _split_chains(chains: Sequence[np.ndarray]) -> np.ndarray:
    """Halve every chain (dropping a trailing odd draw); stack to (m, n)."""
    if len(chains) < 1:
        raise DiagnosticsError("need at least one chain")
    arrays = [np.asarray(c, dtype=float).ravel() for c in chains]
    n = min(a.size for a in arrays)
    if n < 4:
        raise DiagnosticsError("need at least 4 draws per chain")
    half = n // 2
    out = []
    for a in arrays:
        out.append(a[:half])
        out.append(a[half : 2 * half])
    return np.stack(out)


def split_rhat(chains: Sequence[np.ndarray]) -> float:
    """Split potential-scale-reduction factor.

    Chains with zero variance return exactly 1 when they agree and the
    large finite sentinel :data:`RHAT_DISJOINT` when they sit at distinct
    constants.
    """
    s = _split_chains(chains)
    m, n = s.shape
    means = s.mean(axis=1)
    w = float(np.mean(s.var(axis=1, ddof=1)))
    b_over_n = float(np.var(means, ddof=1))
    if w == 0.0:
        return 1.0 if b_over_n == 0.0 else RHAT_DISJOINT
    var_plus = (n - 1) / n * w + b_over_n
    return float(math.sqrt(var_plus / w))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (1/n) autocovariance of one chain via FFT."""
    n = x.size
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real
    return acov / n


def ess(chains: Sequence[np.ndarray]) -> float:
    """Effective sample size from Geyer-truncated autocorrelation sums.

    Degenerate draws (zero variance everywhere) report the total draw
    count by convention.
    """
    s = _split_chains(chains)
    m, n = s.shape
    total = float(m * n)
    chain_vars = s.var(axis=1, ddof=1)
    w = float(np.mean(chain_vars))
    if w == 0.0:
        return total
    b_over_n = float(np.var(s.mean(axis=1), ddof=1)) if m > 1 else 0.0
    var_plus = (n - 1) / n * w + b_over_n
    acov = np.mean([_autocovariance(row) for row in s], axis=0)
    rho = 1.0 - (w - acov) / var_plus
    rho[0] = 1.0

    # pair the lags and keep the initial positive, monotone part
    n_pairs = n // 2
    pair_sums = []
    for t in range(n_pairs):
        a = rho[2 * t]
        b = rho[2 * t + 1] if 2 * t + 1 < n else 0.0
        p = a + b
        if t > 0 and p < 0:
            break
        if pair_sums and p > pair_sums[-1]:
            p = pair_sums[-1]
        pair_sums.append(p)
    tau = -1.0 + 2.0 * float(np.sum(pair_sums))
    tau = max(tau, 1.0 / math.log10(total + 10.0))
    return total / tau


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterSummary:
    name: str
    mean: float
    sd: float
    q2_5: float
    q50: float
    q97_5: float
    rhat: float
    ess: float


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[ParameterSummary, ...]
    max_rhat: float
    min_ess: float

    def row(self, name: str) -> ParameterSummary:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(f"no summary row for '{name}'")

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "max_rhat": self.max_rhat,
            "min_ess": self.min_ess,
            "parameters": [
                {
                    "name": r.name,
                    "mean": r.mean,
                    "sd": r.sd,
                    "q2_5": r.q2_5,
                    "q50": r.q50,
                    "q97_5": r.q97_5,
                    "rhat": r.rhat,
                    "ess": r.ess,
                }
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        """Aligned per-parameter table (mean, 2.5%, 50%, 97.5% order)."""
        width = max([len(r.name) for r in self.rows] + [9])
        lines = [
            f"{'parameter':<{width}} {'mean':>8} {'2.5%':>8} {'50%':>8} {'97.5%':>8}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.name:<{width}} {r.mean:>8.2f} {r.q2_5:>8.2f} "
                f"{r.q50:>8.2f} {r.q97_5:>8.2f}"
            )
        return "\n".join(lines)


def summarize_chains(name: str, per_chain: np.ndarray) -> ParameterSummary:
    """Summary of one quantity given as a (n_chains, n_draws) array."""
    per_chain = np.asarray(per_chain, dtype=float)
    if per_chain.ndim != 2:
        raise DiagnosticsError("per-chain draws must be 2-D (chains x draws)")
    pooled = per_chain.reshape(-1)
    q2_5, q50, q97_5 = np.quantile(pooled, [0.025, 0.5, 0.975])
    return ParameterSummary(
        name=name,
        mean=float(pooled.mean()),
        sd=float(pooled.std(ddof=1)) if pooled.size > 1 else 0.0,
        q2_5=float(q2_5),
        q50=float(q50),
        q97_5=float(q97_5),
        rhat=split_rhat(list(per_chain)),
        ess=ess(list(per_chain)),
    )


def summarize(
    draws: PosteriorDraws, monitored: Iterable[str] | None = None
) -> SummaryTable:
    """Per-parameter summary table on the constrained scale.

    ``monitored`` defaults to every parameter; max R-hat and min ESS are
    taken over the monitored set only.
    """
    names = tuple(monitored) if monitored is not None else draws.parameter_names
    rows = []
    for name in names:
        rows.append(summarize_chains(name, draws.constrained(name)))
    if not rows:
        raise DiagnosticsError("no parameters to summarize")
    return SummaryTable(
        rows=tuple(rows),
        max_rhat=max(r.rhat for r in rows),
        min_ess=min(r.ess for r in rows),
    )


def format_estimate_block(title: str, row: ParameterSummary) -> str:
    """Three-line estimate block: title, header, rounded values."""
    header = f"{'mean':>6} {'2.5%':>5} {'50%':>5} {'97.5%':>5}"
    values = f"{row.mean:>6.2f} {row.q2_5:>5.2f} {row.q50:>5.2f} {row.q97_5:>5.2f}"
    return f"{title}\n{header}\n{values}"


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def predict_new_study(
    draws: PosteriorDraws, rng: np.random.Generator
) -> np.ndarray:
    """Per-draw treatment effect predicted for a hypothetical new study.

    Draws theta* ~ Normal(theta, tau^2) per posterior draw; the extra
    heterogeneity widens the interval relative to theta itself.  Returns
    a (n_chains, n_draws) array ready for :func:`summarize_chains`.
    """
    if "tau" not in draws.parameter_names:
        raise DiagnosticsError(
            "prediction requires a random-effects model (no tau in the draws)"
        )
    if "theta" not in draws.parameter_names:
        raise DiagnosticsError("prediction requires a scalar treatment effect")
    theta = draws.constrained("theta")
    tau = draws.constrained("tau")
    return theta + tau * rng.standard_normal(theta.shape)


_BAND_PROBS = (0.025, 0.25, 0.5, 0.75, 0.975)


@dataclass(frozen=True)
class DoseCurveBands:
    """Pointwise posterior quantile bands of the population dose-response curve."""

    dose: np.ndarray
    q2_5: np.ndarray
    q25: np.ndarray
    q50: np.ndarray
    q75: np.ndarray
    q97_5: np.ndarray


def dose_curve_bands(
    draws: PosteriorDraws, spec: ModelSpec, dose_grid: Sequence[float]
) -> DoseCurveBands:
    """Quantile bands of the response over a dose grid.

    For each posterior draw the curve is the inverse link of the mean
    study baseline plus the dose effect; the baseline convention (the
    per-draw average of the study intercepts) makes this a population
    average curve.
    """
    if spec.family is not ModelFamily.MBMA:
        raise DiagnosticsError("dose-response bands require an mbma model")
    grid = np.asarray(list(dose_grid), dtype=float)
    if grid.size == 0:
        raise DiagnosticsError("dose grid must be non-empty")
    if np.any(grid < 0):
        raise DiagnosticsError("grid doses must be non-negative")
    mu_names = draws.names_matching("mu")
    baseline = np.mean([draws.pooled(n) for n in mu_names], axis=0)
    assert spec.dose_response is not None
    params = {role: draws.pooled(role)[:, None] for role in spec.effect_roles()}
    effect = _dose_response_kernel(spec.dose_response, params, grid)[0]
    curves = baseline[:, None] + effect
    if spec.link is Link.LOGIT:
        curves = 1.0 / (1.0 + np.exp(-curves))
    elif spec.link is Link.LOG:
        curves = np.exp(curves)
    qs = np.quantile(curves, _BAND_PROBS, axis=0)
    return DoseCurveBands(grid, qs[0], qs[1], qs[2], qs[3], qs[4])
