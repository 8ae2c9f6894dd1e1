"""Unconstrained log-posterior density with exact analytic gradient.

Positive parameters (tau, ED50, the Hill parameter) are sampled on the
log scale and bounded ones through a scaled-logistic map, with the
corresponding log-Jacobian terms added so the density is proper on all
of R^dim.  Gradients are hand-derived and chain-ruled through the
transforms, link functions, dose-response functions and the Cholesky
mixing of correlated multi-arm random effects; they are verified against
finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import block_diag
from scipy.special import expit, ndtr

from .data import Dataset, Endpoint
from .model import (
    DR_ROLES,
    ModelError,
    ModelFamily,
    ModelSpec,
    Parametrization,
    Prior,
    _dose_response_kernel,
    _libm_log,
    default_priors,
    sigma_gamma_cholesky,
)

_LOG_2PI = math.log(2.0 * math.pi)


class PosteriorError(ValueError):
    """Invalid input to a posterior evaluation."""


# ---------------------------------------------------------------------------
# Parameter layout and transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """A named run of unconstrained coordinates with an output transform."""

    name: str
    size: int
    transform: str = "identity"  # identity | exp | interval
    lower: float = math.nan
    upper: float = math.nan


class ParameterLayout:
    """Ordered parameter blocks mapping z in R^dim to constrained values."""

    def __init__(self, blocks: Sequence[Block]):
        names = [b.name for b in blocks]
        if len(set(names)) != len(names):
            raise PosteriorError(f"duplicate block names: {names}")
        self.blocks = tuple(blocks)
        self._slices: dict[str, slice] = {}
        off = 0
        for b in blocks:
            self._slices[b.name] = slice(off, off + b.size)
            off += b.size
        self.dim = off
        flat = []
        for b in blocks:
            if b.size == 1:
                flat.append(b.name)
            else:
                flat.extend(f"{b.name}[{i + 1}]" for i in range(b.size))
        self.parameter_names = tuple(flat)

    def has(self, name: str) -> bool:
        return name in self._slices

    def slice_of(self, name: str) -> slice:
        if name not in self._slices:
            raise PosteriorError(f"no block named '{name}'")
        return self._slices[name]

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise PosteriorError(f"no block named '{name}'")

    def block_of_index(self, i: int) -> str:
        for b in self.blocks:
            sl = self._slices[b.name]
            if sl.start <= i < sl.stop:
                return b.name
        raise PosteriorError(f"index {i} outside layout of dimension {self.dim}")

    # The transforms act on the last axis: z may be one point or a stack.

    def constrain(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        x = z.copy()
        for b in self.blocks:
            sl = self._slices[b.name]
            if b.transform == "exp":
                x[..., sl] = np.exp(z[..., sl])
            elif b.transform == "interval":
                x[..., sl] = b.lower + (b.upper - b.lower) * expit(z[..., sl])
        return x

    def unconstrain(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = x.copy()
        for b in self.blocks:
            sl = self._slices[b.name]
            if b.transform == "exp":
                z[..., sl] = np.log(x[..., sl])
            elif b.transform == "interval":
                p = (x[..., sl] - b.lower) / (b.upper - b.lower)
                z[..., sl] = np.log(p) - np.log1p(-p)
        return z

    def transform_with_grad(self, z: np.ndarray):
        """Constrained values, dx/dz, total log-Jacobian and its z-gradient."""
        x = z.copy()
        dxdz = np.ones(z.shape)
        log_jac = np.zeros(z.shape[:-1])
        dlog_jac = np.zeros(z.shape)
        for b in self.blocks:
            if b.transform == "identity":
                continue
            sl = self._slices[b.name]
            if b.transform == "exp":
                x[..., sl] = np.exp(z[..., sl])
                dxdz[..., sl] = x[..., sl]
                log_jac += z[..., sl].sum(axis=-1)
                dlog_jac[..., sl] += 1.0
            else:  # interval
                s = expit(z[..., sl])
                width = b.upper - b.lower
                x[..., sl] = b.lower + width * s
                dxdz[..., sl] = width * s * (1.0 - s)
                # log sigma(z) + log(1 - sigma(z)), stable for large |z|
                log_jac += np.sum(
                    math.log(width)
                    - np.logaddexp(0.0, -z[..., sl])
                    - np.logaddexp(0.0, z[..., sl]),
                    axis=-1,
                )
                dlog_jac[..., sl] += 1.0 - 2.0 * s
        return x, dxdz, log_jac, dlog_jac


# ---------------------------------------------------------------------------
# Likelihood kernels
# ---------------------------------------------------------------------------


def _endpoint_arrays(dataset: Dataset, sort: bool = True):
    """Per-arm outcome arrays, by default in (study, arm) order.

    The payload also carries the data-only terms of the kernel, so that
    evaluations do not recompute them.
    """
    arms = list(dataset.arms)
    if sort:
        arms.sort(key=lambda a: (a.study, a.arm))
    if dataset.endpoint is Endpoint.BINARY:
        y = np.array([a.responders for a in arms], dtype=float)
        n = np.array([a.sample_size for a in arms], dtype=float)
        payload = (y, n)
    elif dataset.endpoint is Endpoint.CONTINUOUS:
        y = np.array([a.mean for a in arms], dtype=float)
        se = np.array([a.std_err for a in arms], dtype=float)
        payload = (y, se, -0.5 * _LOG_2PI - np.log(se), se**2)
    else:
        y = np.array([a.events for a in arms], dtype=float)
        e = np.array([a.exposure for a in arms], dtype=float)
        payload = (y, e, np.log(e))
    return arms, payload


def _loglik_and_dtheta(endpoint: Endpoint, payload, theta: np.ndarray):
    """Log-likelihood kernel summed over the last axis, and its per-arm derivative.

    Binary arms use the binomial kernel on the logit scale with the
    data-only binomial coefficient dropped; counts use a Poisson kernel
    with the exposure as additive offset, dropping log(y!).
    """
    if endpoint is Endpoint.BINARY:
        y, n = payload
        ll = (y * theta - n * np.logaddexp(0.0, theta)).sum(axis=-1)
        grad = y - n * expit(theta)
    elif endpoint is Endpoint.CONTINUOUS:
        y, se, log_norm, var = payload
        resid = (y - theta) / se
        ll = (log_norm - 0.5 * resid**2).sum(axis=-1)
        grad = (y - theta) / var
    else:
        y, e, log_e = payload
        mean = e * np.exp(theta)
        ll = (y * (theta + log_e) - mean).sum(axis=-1)
        grad = y - mean
    return ll, grad


def log_likelihood(dataset: Dataset, theta: np.ndarray) -> float:
    """Log-likelihood of per-arm predictors, aligned with ``dataset.arms``."""
    _, payload = _endpoint_arrays(dataset, sort=False)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(dataset.arms),):
        raise PosteriorError(
            f"need one predictor per arm ({len(dataset.arms)}), got {theta.shape}"
        )
    ll, _ = _loglik_and_dtheta(dataset.endpoint, payload, theta)
    return float(ll)


# ---------------------------------------------------------------------------
# Prior kernels on the constrained scale
# ---------------------------------------------------------------------------


def _prior_kernel(prior: Prior, positive_support: bool):
    """Elementwise log-density and derivative of a prior, as a function of x.

    ``positive_support`` marks blocks restricted to (0, inf) by an exp
    transform; a normal prior there is renormalised as a truncated
    normal (a constant shift, e.g. the Hill-parameter prior).  The
    constants are computed once, grouped as the expressions evaluate
    them, so values do not depend on where they are computed.
    """
    if prior.family == "normal":
        mean, sd = prior.params
        const, var = -0.5 * _LOG_2PI - math.log(sd), sd**2
        trunc = math.log(ndtr(mean / sd)) if positive_support else 0.0

        def normal(x):
            d = x - mean
            lp = const - 0.5 * (d / sd) ** 2
            if positive_support:
                lp = lp - trunc
            return lp, -d / var

        return normal
    if prior.family == "half_normal":
        (scale,) = prior.params
        const, var = math.log(2.0) - 0.5 * _LOG_2PI - math.log(scale), scale**2
        return lambda x: (const - 0.5 * (x / scale) ** 2, -x / var)
    if prior.family == "cauchy":
        loc, scale = prior.params
        # positive-truncated Cauchy; the survival mass at 0 is constant
        surv0 = 0.5 + math.atan(loc / scale) / math.pi
        const, log_surv0 = -math.log(math.pi * scale), math.log(surv0)

        def cauchy(x):
            t = (x - loc) / scale
            return const - np.log1p(t**2) - log_surv0, -2.0 * t / (scale * (1.0 + t**2))

        return cauchy
    if prior.family == "uniform":
        lower, upper = prior.params
        const = -math.log(upper - lower)
        return lambda x: (np.full_like(x, const), np.zeros_like(x))
    if prior.family == "log_normal":
        log_mean, log_sd = prior.params
        log_log_sd, half_log_2pi, log_var = math.log(log_sd), 0.5 * _LOG_2PI, log_sd**2

        def log_normal(x):
            lx = np.log(x)
            lp = -lx - log_log_sd - half_log_2pi - 0.5 * ((lx - log_mean) / log_sd) ** 2
            return lp, (-1.0 - (lx - log_mean) / log_var) / x

        return log_normal
    raise PosteriorError(f"prior family '{prior.family}' must be resolved before use")


def _libm_pow(v: np.ndarray, k: int) -> np.ndarray:
    """``v[i] ** k`` as a numpy scalar power rounds it (the C library's pow)."""
    return np.array([e**k for e in v])


# ---------------------------------------------------------------------------
# Layout construction
# ---------------------------------------------------------------------------


def build_layout(
    spec: ModelSpec, dataset: Dataset, priors: dict[str, Prior] | None = None
) -> ParameterLayout:
    """Parameter blocks for a (spec, dataset) pair.

    Order: per-study baselines, effect parameters (theta, or the
    dose-response parameters), regression coefficients, the heterogeneity
    scale, then the latent random effects (``u`` for the non-centered
    form, ``gamma`` for the centered one; one per study for pairwise
    models, one per non-control arm for dose-response models).
    """
    priors = priors if priors is not None else default_priors(spec)
    k = dataset.n_studies
    blocks = [Block("mu", k)]
    if spec.family is ModelFamily.MBMA:
        assert spec.dose_response is not None
        for role in DR_ROLES[spec.dose_response]:
            blocks.append(Block(role, 1, "exp" if role in ("ED50", "n") else "identity"))
    else:
        blocks.append(Block("theta", 1))
    if spec.family is ModelFamily.META_REGRESSION:
        blocks.append(Block("beta", spec.n_covariates))
    if spec.random_effects:
        tau_prior = priors["tau"]
        if tau_prior.family == "uniform":
            lo, hi = tau_prior.params
            if lo < 0:
                raise ModelError("uniform tau prior needs a non-negative lower bound")
            blocks.append(Block("tau", 1, "interval", lo, hi))
        else:
            blocks.append(Block("tau", 1, "exp"))
        n_latent = k
        if spec.family is ModelFamily.MBMA:
            n_latent = sum(c - 1 for c in dataset.arms_per_study)
        blocks.append(Block("u" if spec.non_centered else "gamma", n_latent))
    return ParameterLayout(blocks)


# ---------------------------------------------------------------------------
# Posterior
# ---------------------------------------------------------------------------


@dataclass
class _RandomEffects:
    """Random-effect values of a stack of points, and what their gradients need."""

    tau: np.ndarray  # (B,)
    dtau_dz: np.ndarray  # (B,)
    latent: np.ndarray  # (B, n_latent): u (non-centered) or gamma (centered)
    gamma: np.ndarray  # (B, n_latent)
    mixed: np.ndarray | None  # (B, n_latent) L u, non-centered only


class Posterior:
    """Log-posterior and gradient for a (ModelSpec, Dataset) pair.

    Missing priors are filled with the model defaults; the functional
    ED50 prior is resolved against the maximum dose at construction.
    """

    def __init__(self, spec: ModelSpec, dataset: Dataset):
        spec.validate_against(dataset)
        self.spec = spec
        self.dataset = dataset
        self.priors = default_priors(spec)
        self.layout = build_layout(spec, dataset, self.priors)
        self.dim = self.layout.dim

        arms, self._payload = _endpoint_arrays(dataset)
        self._arms = arms
        k = dataset.n_studies
        self._k = k
        self._sidx = np.array([a.study - 1 for a in arms])
        # bincount indices of the largest stack seen; a stack of B points
        # uses its first B * n_arms entries
        self._stacked_sidx = self._sidx

        slices = self.layout.slice_of
        self._sl_mu = slices("mu")
        self._sl_beta = slices("beta") if self.layout.has("beta") else None
        # (column, exp-transformed) of each scalar effect parameter
        self._effects = [
            (slices(r).start, self.layout.block(r).transform == "exp")
            for r in spec.effect_roles()
        ]
        if spec.random_effects:
            self._i_tau = slices("tau").start
            self._sl_latent = slices("u" if spec.non_centered else "gamma")

        # Mixing of the latent effects: the block-diagonal Cholesky factor
        # _L and precision _P for multi-arm dose-response trials; None for
        # pairwise models, whose one effect per study is unmixed.
        self._L = self._P = None
        self._logdet_corr = 0.0
        if spec.family is ModelFamily.MBMA:
            self._nc_pos = np.array([i for i, a in enumerate(arms) if a.arm != 0])
            self._dose_nc = np.array([arms[i].dose for i in self._nc_pos], dtype=float)
            sizes = [c - 1 for c in dataset.arms_per_study]
            self._n_latent = sum(sizes)
            chols = [sigma_gamma_cholesky(1.0, m) for m in sizes]
            self._L = block_diag(*chols)
            self._P = block_diag(*[np.linalg.inv(c @ c.T) for c in chols])
            self._logdet_corr = float(2.0 * sum(np.sum(np.log(np.diag(c))) for c in chols))
            self._max_dose = (
                float(spec.max_dose)
                if spec.max_dose is not None
                else float(max(a.dose for a in arms))
            )
            if self._max_dose <= 0:
                raise ModelError("mbma needs a positive maximum dose")
            self._s = None
            self._X = None
        else:
            symmetric = spec.parametrization is Parametrization.SYMMETRIC
            arm_is_control = np.array([a.arm == 0 for a in arms])
            self._s = np.where(
                arm_is_control, -0.5 if symmetric else 0.0, 0.5 if symmetric else 1.0
            )
            self._X = (
                np.asarray(spec.covariates, dtype=float)
                if spec.family is ModelFamily.META_REGRESSION
                else None
            )
            self._n_latent = k
            self._max_dose = None
        self._latent_norm = 0.5 * self._n_latent * _LOG_2PI

        if "ED50" in self.priors and self.priors["ED50"].family == "functional_ed50":
            self.priors["ED50"] = Prior.log_normal(-2.5 + math.log(self._max_dose), 1.8)

        # blocks whose prior factorises elementwise over the constrained values
        self._plain_priors = [
            (
                slices(block.name),
                _prior_kernel(self.priors[block.name], block.transform == "exp"),
                block.transform != "identity",
            )
            for block in self.layout.blocks
            if block.name not in ("u", "gamma")
        ]

    # -- evaluation --------------------------------------------------------

    def logp_and_grad(self, z: np.ndarray):
        """Log density and gradient on the unconstrained scale.

        ``z`` is one point, shape (dim,), giving a float and a (dim,)
        gradient, or a stack of points, shape (B, dim), giving (B,) log
        densities and (B, dim) gradients.  Row b of a stack equals the
        evaluation of point b alone bit for bit.  Points carrying
        numerical overflow evaluate to -inf (with a zero gradient) rather
        than raising, so samplers can treat them as divergent transitions.
        """
        z = self._check_input(z)
        if z.ndim == 2:
            return self._logp_and_grad(z)
        lp, grad = self._logp_and_grad(z[None])
        return float(lp[0]), grad[0]

    def log_likelihood_value(self, z: np.ndarray) -> float:
        """Likelihood part alone (used in parametrization-equivalence checks)."""
        z = self._check_point(z)
        x, dxdz, _, _ = self.layout.transform_with_grad(z)
        ll, _ = self._likelihood_terms_at(x, dxdz, self._re_parts(x, dxdz))
        return float(ll[0])

    def log_prior_value(self, z: np.ndarray) -> float:
        """Prior density including transform Jacobians, without the likelihood."""
        z = self._check_point(z)
        x, dxdz, log_jac, _ = self.layout.transform_with_grad(z)
        lp, _ = self._prior_terms_at(x, dxdz, self._re_parts(x, dxdz))
        return float(log_jac[0] + lp[0])

    def _check_input(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim not in (1, 2) or z.shape[-1] != self.dim:
            raise PosteriorError(
                f"z must have shape ({self.dim},) or (B, {self.dim}), got {z.shape}"
            )
        if not np.isfinite(z).all():
            bad = int(np.flatnonzero(~np.isfinite(z))[0]) % self.dim
            raise PosteriorError(
                f"non-finite input in block '{self.layout.block_of_index(bad)}'"
            )
        return z

    def _check_point(self, z: np.ndarray) -> np.ndarray:
        """One point as a stack of one."""
        z = self._check_input(z)
        if z.ndim != 1:
            raise PosteriorError(f"z must have shape ({self.dim},), got {z.shape}")
        return z[None]

    # -- internals: every array carries a leading axis over the B points ----
    #
    # Row b must round exactly as point b alone: sums and dot products run
    # over rows with unit stride (np.take, not fancy indexing, which lays
    # its result out column-major and would reorder the summation), and
    # matrix products are stacked matrix-vector products, never one gemm.

    def _logp_and_grad(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x, dxdz, log_jac, dlog_jac = self.layout.transform_with_grad(z)
            re = self._re_parts(x, dxdz)
            lp_prior, grad_prior = self._prior_terms_at(x, dxdz, re)
            lp_lik, grad_lik = self._likelihood_terms_at(x, dxdz, re)
            lp = log_jac + lp_prior + lp_lik
            grad = dlog_jac + grad_prior + grad_lik
        bad = ~(np.isfinite(lp) & np.isfinite(grad).all(axis=1))
        if bad.any():
            lp[bad] = -math.inf
            grad[bad] = 0.0
        return lp, grad

    def _study_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-study sums of per-arm values, (B, n_arms) -> (B, k)."""
        b = v.shape[0]
        if self._stacked_sidx.size < v.size:
            self._stacked_sidx = (self._sidx + self._k * np.arange(b)[:, None]).ravel()
        idx = self._stacked_sidx[: v.size]
        return np.bincount(idx, weights=v.ravel(), minlength=b * self._k).reshape(b, self._k)

    def _re_parts(self, x: np.ndarray, dxdz: np.ndarray) -> _RandomEffects | None:
        """Random-effect values and the pieces needed for their gradients."""
        if not self.spec.random_effects:
            return None
        tau = x[:, self._i_tau]
        dtau_dz = dxdz[:, self._i_tau]
        latent = x[:, self._sl_latent]
        if not self.spec.non_centered:
            return _RandomEffects(tau, dtau_dz, latent, latent, None)
        mixed = latent if self._L is None else np.matmul(self._L, latent[:, :, None])[:, :, 0]
        return _RandomEffects(tau, dtau_dz, latent, tau[:, None] * mixed, mixed)

    def _prior_terms_at(self, x, dxdz, re: _RandomEffects | None):
        lp = 0.0
        grad = np.zeros(x.shape)
        for sl, kernel, transformed in self._plain_priors:
            vals, dvals = kernel(x[:, sl])
            lp = lp + vals.sum(axis=-1)
            # dx/dz is exactly 1 on untransformed blocks
            grad[:, sl] += dvals * dxdz[:, sl] if transformed else dvals
        if re is None:
            return lp, grad
        if self.spec.non_centered:
            u = re.latent
            lp = lp + (-0.5 * np.vecdot(u, u) - self._latent_norm)
            grad[:, self._sl_latent] += -u
            return lp, grad
        gamma, tau = re.latent, re.tau
        # tau**3 underflows below 1e-100; there is no density mass this deep
        deep = tau < 1e-100
        tau_ok = np.where(deep, 1.0, tau)
        tau2, tau3 = _libm_pow(tau_ok, 2), _libm_pow(tau_ok, 3)
        pg = gamma if self._P is None else np.matmul(self._P, gamma[:, :, None])[:, :, 0]
        quad = np.vecdot(gamma, pg)
        lp = lp + (
            -0.5 * quad / tau2
            - self._n_latent * _libm_log(tau_ok)
            - 0.5 * self._logdet_corr
            - self._latent_norm
        )
        grad[:, self._sl_latent] += -pg / tau2[:, None]
        grad[:, self._i_tau] += (quad / tau3 - self._n_latent / tau) * re.dtau_dz
        return np.where(deep, -math.inf, lp), grad

    def _likelihood_terms_at(self, x, dxdz, re: _RandomEffects | None):
        grad = np.zeros(x.shape)
        mu = x[:, self._sl_mu]
        gamma = re.gamma if re is not None else None
        effects = [x[:, i] for i, _ in self._effects]

        if self.spec.family is ModelFamily.MBMA:
            roles = self.spec.effect_roles()
            # an ED50 or Hill parameter underflowed to 0 has no density:
            # evaluate such rows at 1 and give them -inf
            void = np.zeros(x.shape[0], dtype=bool)
            for v, (_, is_exp) in zip(effects, self._effects):
                if is_exp:
                    void |= v <= 0
            if void.any():
                effects = [
                    np.where(void, 1.0, v) if is_exp else v
                    for v, (_, is_exp) in zip(effects, self._effects)
                ]
            params = {r: v[:, None] for r, v in zip(roles, effects)}
            f, partials = _dose_response_kernel(self.spec.dose_response, params, self._dose_nc)
            theta = mu.take(self._sidx, axis=1)
            theta[:, self._nc_pos] += f
            if gamma is not None:
                theta[:, self._nc_pos] += gamma
            ll, g = _loglik_and_dtheta(self.dataset.endpoint, self._payload, theta)
            if void.any():
                ll = np.where(void, -math.inf, ll)
            grad[:, self._sl_mu] += self._study_sums(g)
            g_effect = g.take(self._nc_pos, axis=1)
            for role, (i, _) in zip(roles, self._effects):
                grad[:, i] += np.vecdot(g_effect, partials[role]) * dxdz[:, i]
        else:
            (d,) = effects
            delta = np.full((x.shape[0], self._k), d[:, None])
            if self._X is not None:
                delta = delta + np.matmul(self._X, x[:, self._sl_beta, None])[:, :, 0]
            if gamma is not None:
                delta = delta + gamma
            theta = mu.take(self._sidx, axis=1) + self._s * delta.take(self._sidx, axis=1)
            ll, g = _loglik_and_dtheta(self.dataset.endpoint, self._payload, theta)
            grad[:, self._sl_mu] += self._study_sums(g)
            g_effect = self._study_sums(g * self._s)
            grad[:, self._effects[0][0]] += g_effect.sum(axis=-1)
            if self._X is not None:
                grad[:, self._sl_beta] += np.matmul(self._X.T, g_effect[:, :, None])[:, :, 0]

        if re is not None:
            if self.spec.non_centered:
                mixed_t = (
                    g_effect if self._L is None
                    else np.matmul(self._L.T, g_effect[:, :, None])[:, :, 0]
                )
                grad[:, self._sl_latent] += re.tau[:, None] * mixed_t
                grad[:, self._i_tau] += np.vecdot(g_effect, re.mixed) * re.dtau_dz
            else:
                grad[:, self._sl_latent] += g_effect
        return ll, grad

