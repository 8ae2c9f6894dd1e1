"""Effective sample size and split R-hat, kept apart from metabayes.

The benchmark's headline metric, min-ESS per second, is computed here
from the draws, so that a change to ``metabayes.diagnostics`` cannot
redefine it.  Both statistics follow Gelman et al., Bayesian Data
Analysis (3rd ed.), section 11.4-11.5: every chain is split in half, and
the ESS sums autocorrelations estimated from the combined within- and
between-chain variance, truncated by Geyer's initial monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np


def _halves(draws: np.ndarray) -> np.ndarray:
    """(chains, n) -> (2 * chains, n // 2), dropping a trailing odd draw."""
    draws = np.asarray(draws, dtype=float)
    half = draws.shape[1] // 2
    return np.concatenate([draws[:, :half], draws[:, half : 2 * half]], axis=0)


def split_rhat(draws: np.ndarray) -> float:
    """Potential scale reduction of a (chains, n) array of one quantity."""
    x = _halves(draws)
    n = x.shape[1]
    within = x.var(axis=1, ddof=1).mean()
    between_over_n = x.mean(axis=1).var(ddof=1)
    if within == 0.0:
        return 1.0 if between_over_n == 0.0 else math.inf
    return math.sqrt(((n - 1) / n * within + between_over_n) / within)


def ess(draws: np.ndarray) -> float:
    """Effective sample size of a (chains, n) array of one quantity."""
    x = _halves(draws)
    m, n = x.shape
    within = x.var(axis=1, ddof=1).mean()
    if within == 0.0:
        return float(m * n)
    var_plus = (n - 1) / n * within + x.mean(axis=1).var(ddof=1)
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size, axis=1)
    # biased (divide by n) autocovariance per chain, averaged over chains
    acov = np.fft.irfft(spectrum * spectrum.conj(), size, axis=1)[:, :n].mean(axis=0) / n
    rho = 1.0 - (within - acov) / var_plus
    rho[0] = 1.0
    # Geyer: sums of adjacent pairs, cut at the first negative pair and
    # made non-increasing
    n_pairs = n // 2
    pairs = rho[: 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    negative = np.flatnonzero(pairs[1:] < 0.0)
    if negative.size:
        pairs = pairs[: negative[0] + 1]
    pairs = np.minimum.accumulate(pairs)
    tau = max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / math.log10(m * n + 10.0))
    return m * n / tau


def mcse_mean(draws: np.ndarray) -> float:
    """Monte Carlo standard error of the posterior mean."""
    draws = np.asarray(draws, dtype=float)
    return float(draws.std(ddof=1) / math.sqrt(ess(draws)))
