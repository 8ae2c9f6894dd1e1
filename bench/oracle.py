"""Quadrature oracle for the pairwise binary meta-analysis model.

Written with numpy and scipy only, without the package under test, so
that a fault in metabayes cannot move the reference values.  The model is the
symmetric pairwise binomial-logit model:

    logit p_i0 = mu_i - delta_i / 2,   logit p_i1 = mu_i + delta_i / 2,
    mu_i ~ N(0, mu_sd^2),  theta ~ N(0, theta_sd^2),
    delta_i ~ N(theta, tau^2) (random effects) or delta_i = theta (common),
    tau ~ half-normal(tau_scale).

Each study's baseline is integrated out first, on a mu grid, giving the
profile g_i(delta).  The random-effects prior is then folded in with
normal-bin probabilities over the delta grid: the chance that
N(theta, tau^2) falls in the bin around each grid point.  With the theta
grid equal to the delta grid the fold is a convolution, done by FFT.
Posterior means of theta and tau are sums over the (theta, tau) grid.
The study profiles are shared by the random- and common-effect models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

# delta (= theta) grid: +-12 on the log-odds scale covers the
# Normal(0, 2.5) effect prior to 4.8 sd; 0.02 spacing resolves posteriors
# whose sd is far above 0.1
_DELTA_STEP = 0.02
_DELTA_MAX = 12.0
# tau grid: bin midpoints up to 3.5, seven sd of the half-normal(0.5) prior
_TAU_STEP = 0.005
_TAU_MAX = 3.5
_MU_LOW = -50.0


@dataclass(frozen=True)
class OracleResult:
    theta_mean: float
    theta_sd: float
    tau_mean: float  # nan for the common-effect model
    tau_sd: float


def study_profiles(y0, n0, y1, n1, mu_sd: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
    """The delta grid and log g_i(delta) on it, shape (n_grid, n_studies).

    g_i(delta) is the binomial likelihood of study i integrated against
    the Normal(0, mu_sd^2) baseline prior over mu; binomial coefficients
    are dropped (constant in the parameters).  The mu integrand is smooth
    and log-concave, so a Riemann sum with a step of 0.4 of its width is
    exact far below the Monte Carlo error of any fit.
    """
    y0, n0, y1, n1 = (np.asarray(v, dtype=float) for v in (y0, n0, y1, n1))
    delta = np.arange(-_DELTA_MAX, _DELTA_MAX + 0.5 * _DELTA_STEP, _DELTA_STEP)
    out = np.empty((delta.size, y0.size))
    for i in range(y0.size):
        p = np.array([(y0[i] + 0.5) / (n0[i] + 1.0), (y1[i] + 0.5) / (n1[i] + 1.0)])
        info = float(np.max(np.array([n0[i], n1[i]]) * p * (1.0 - p)))
        step = min(0.1, 0.4 / math.sqrt(info))
        # above the observed logits the likelihood falls like exp(-n * mu);
        # below them it is flat (zero events) or rises like exp(y * mu)
        mu_hi = math.log(p.max() / (1.0 - p.max())) + 0.5 * _DELTA_MAX + 10.0
        mu = np.arange(_MU_LOW, mu_hi, step)
        log_prior_mu = -0.5 * (mu / mu_sd) ** 2
        for lo in range(0, delta.size, 200):
            d = delta[lo : lo + 200, None]
            a = mu[None, :] - 0.5 * d
            b = mu[None, :] + 0.5 * d
            ll = (
                y0[i] * a
                - n0[i] * np.logaddexp(0.0, a)
                + y1[i] * b
                - n1[i] * np.logaddexp(0.0, b)
                + log_prior_mu[None, :]
            )
            peak = ll.max(axis=1, keepdims=True)
            out[lo : lo + 200, i] = (
                np.log(np.exp(ll - peak).sum(axis=1)) + peak[:, 0] + math.log(step)
            )
    return delta, out


def _moments(grid: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    mean = float(weights @ grid)
    return mean, math.sqrt(max(float(weights @ (grid - mean) ** 2), 0.0))


def common_effect(delta: np.ndarray, log_g: np.ndarray, theta_sd: float = 2.5) -> OracleResult:
    """Posterior of theta when every study shares it (delta_i = theta)."""
    log_post = -0.5 * (delta / theta_sd) ** 2 + log_g.sum(axis=1)
    w = np.exp(log_post - log_post.max())
    theta_mean, theta_sd_post = _moments(delta, w / w.sum())
    return OracleResult(theta_mean, theta_sd_post, math.nan, math.nan)


def random_effects(
    delta: np.ndarray, log_g: np.ndarray, theta_sd: float = 2.5, tau_scale: float = 0.5
) -> OracleResult:
    """Posterior of (theta, tau) with delta_i ~ N(theta, tau^2)."""
    # normalise each profile to a maximum of 1 before leaving log space
    g = np.exp(log_g - log_g.max(axis=0))
    n = delta.size
    nfft = 1 << (3 * n).bit_length()
    g_hat = np.fft.rfft(g, nfft, axis=0)
    # kernel over offsets -(n-1)..(n-1): computed on the lower half, where
    # both cdf values sit in the lower tail, and mirrored
    lower = np.arange(-(n - 1), 1) * _DELTA_STEP
    taus = np.arange(0.5 * _TAU_STEP, _TAU_MAX, _TAU_STEP)
    log_post = np.empty((taus.size, n))
    for t, tau in enumerate(taus):
        half = ndtr((lower + 0.5 * _DELTA_STEP) / tau) - ndtr(
            (lower - 0.5 * _DELTA_STEP) / tau
        )
        kernel = np.concatenate([half, half[-2::-1]])
        folded = np.fft.irfft(g_hat * np.fft.rfft(kernel, nfft)[:, None], nfft, axis=0)
        # full-convolution index k + (n - 1) is theta grid point k; FFT
        # round-off can leave tiny negatives where the true value is ~0
        folded = folded[n - 1 : 2 * n - 1]
        log_post[t] = np.log(np.maximum(folded, 1e-300)).sum(axis=1)
    log_post += -0.5 * (delta[None, :] / theta_sd) ** 2 - 0.5 * (taus[:, None] / tau_scale) ** 2
    w = np.exp(log_post - log_post.max())
    w /= w.sum()
    theta_mean, theta_sd_post = _moments(delta, w.sum(axis=0))
    tau_mean, tau_sd = _moments(taus, w.sum(axis=1))
    return OracleResult(theta_mean, theta_sd_post, tau_mean, tau_sd)
