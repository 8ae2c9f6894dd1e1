"""Shared test utilities: synthetic datasets, raw-target sampling, gradients."""

from __future__ import annotations

import zlib

import numpy as np

from metabayes.data import ArmRecord, Dataset, Endpoint
from metabayes.model import ModelSpec, Prior
from metabayes.posterior import Posterior
from metabayes.sampler import (
    ChainOutput,
    PosteriorDraws,
    SamplerConfig,
    _sample_chains,
    _stacked,
    chain_rng,
)


def synth_pairwise(endpoint: Endpoint, n_studies: int = 4, seed: int = 0) -> Dataset:
    """Small two-arm dataset with plausible values for any endpoint."""
    rng = np.random.default_rng(seed)
    arms = []
    for s in range(1, n_studies + 1):
        for arm in (0, 1):
            if endpoint is Endpoint.BINARY:
                n = int(rng.integers(20, 150))
                arms.append(
                    ArmRecord(s, arm, responders=int(rng.integers(1, n)), sample_size=n)
                )
            elif endpoint is Endpoint.CONTINUOUS:
                arms.append(
                    ArmRecord(
                        s,
                        arm,
                        mean=float(rng.normal(0, 1)),
                        std_err=float(rng.uniform(0.2, 1.0)),
                    )
                )
            else:
                arms.append(
                    ArmRecord(
                        s,
                        arm,
                        events=int(rng.integers(0, 40)),
                        exposure=float(rng.uniform(10, 100)),
                    )
                )
    return Dataset(endpoint=endpoint, arms=tuple(arms))


def synth_mbma(endpoint: Endpoint, seed: int = 0) -> Dataset:
    """Multi-arm dose-response dataset with 2-4 arms per study."""
    rng = np.random.default_rng(seed)
    doses_per_study = [(0, 200), (0, 50, 100, 200), (0, 100, 200), (0, 50)]
    arms = []
    for s, doses in enumerate(doses_per_study, start=1):
        for j, dose in enumerate(doses):
            if endpoint is Endpoint.BINARY:
                n = int(rng.integers(20, 150))
                arms.append(
                    ArmRecord(
                        s, j, dose=float(dose), responders=int(rng.integers(1, n)), sample_size=n
                    )
                )
            elif endpoint is Endpoint.CONTINUOUS:
                arms.append(
                    ArmRecord(
                        s,
                        j,
                        dose=float(dose),
                        mean=float(rng.normal(0, 1)),
                        std_err=float(rng.uniform(0.2, 1.0)),
                    )
                )
            else:
                arms.append(
                    ArmRecord(
                        s,
                        j,
                        dose=float(dose),
                        events=int(rng.integers(0, 40)),
                        exposure=float(rng.uniform(10, 100)),
                    )
                )
    return Dataset(endpoint=endpoint, arms=tuple(arms))


def stable_seed(label: str) -> int:
    """Process-independent seed from a label (hash() is salted per run)."""
    return zlib.crc32(label.encode())


def all_spec_variants():
    """Every endpoint x family x parametrization x centering combination."""
    cases = []
    for endpoint in Endpoint:
        ds_pair = synth_pairwise(endpoint, seed=stable_seed(endpoint.value))
        ds_dose = synth_mbma(endpoint, seed=stable_seed(endpoint.value) + 1)
        dr = {
            Endpoint.BINARY: "emax",
            Endpoint.CONTINUOUS: "sigmoidal",
            Endpoint.COUNT: "log_linear",
        }[endpoint]
        cov = tuple((float(i % 2), i / ds_pair.n_studies) for i in range(ds_pair.n_studies))
        for param in ("symmetric", "baseline_contrast"):
            for ncp in (True, False):
                tag = f"{param}-{'ncp' if ncp else 'c'}"
                cases.append(
                    (
                        f"pairwise-{endpoint.value}-{tag}",
                        ModelSpec("pairwise", endpoint, parametrization=param, non_centered=ncp),
                        ds_pair,
                    )
                )
                cases.append(
                    (
                        f"mreg-{endpoint.value}-{tag}",
                        ModelSpec(
                            "meta_regression",
                            endpoint,
                            parametrization=param,
                            non_centered=ncp,
                            covariates=cov,
                        ),
                        ds_pair,
                    )
                )
        for ncp in (True, False):
            cases.append(
                (
                    f"mbma-{endpoint.value}-{dr}-{'ncp' if ncp else 'c'}",
                    ModelSpec("mbma", endpoint, dose_response=dr, non_centered=ncp),
                    ds_dose,
                )
            )
        cases.append(
            (
                f"pairwise-{endpoint.value}-common",
                ModelSpec("pairwise", endpoint, random_effects=False),
                ds_pair,
            )
        )
    cases.append(
        (
            "mbma-binary-linear-ncp",
            ModelSpec("mbma", "binary", dose_response="linear"),
            synth_mbma(Endpoint.BINARY, seed=9),
        )
    )
    cases.append(
        (
            "pairwise-binary-uniformtau",
            ModelSpec("pairwise", "binary", priors={"tau": Prior.uniform(0.0, 5.0)}),
            synth_pairwise(Endpoint.BINARY, seed=4),
        )
    )
    cases.append(
        (
            "pairwise-binary-cauchytau",
            ModelSpec("pairwise", "binary", priors={"tau": Prior.cauchy(0.0, 1.0)}),
            synth_pairwise(Endpoint.BINARY, seed=4),
        )
    )
    return cases


def max_gradient_error(post: Posterior, n_points: int, seed: int, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs central differences.

    The difference quotient of log densities only resolves O(h) changes
    when |log p| * eps_machine / (2h) is far below the tolerance, so
    points with |log p| > 1e5 (absurdly deep in a count-model tail) are
    redrawn; the check still covers the entire posterior-relevant region.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    # one stacked evaluation per point: z, then z + h e_i, then z - h e_i
    shifts = np.concatenate([np.zeros((1, post.dim)), h * np.eye(post.dim), -h * np.eye(post.dim)])
    for _ in range(50 * n_points):
        if checked == n_points:
            break
        z = rng.normal(0.0, 1.0, post.dim)
        lps, grads = post.logp_and_grad(z + shifts)
        lp, grad = lps[0], grads[0]
        if not abs(lp) < 1e5:
            continue
        checked += 1
        fd = (lps[1 : post.dim + 1] - lps[post.dim + 1 :]) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
        worst = max(worst, float(rel.max()))
    assert checked == n_points, "could not find enough well-conditioned points"
    return worst


def run_raw_chains(vg, dim: int, config: SamplerConfig) -> PosteriorDraws:
    """Run the HMC machinery on a bare one-point (log density, gradient) target.

    The sampler evaluates stacks of points; the target is evaluated on
    them row by row.
    """
    rngs = [chain_rng(config.seed, c) for c in range(config.chains)]
    chains = _sample_chains(_stacked(vg), dim, config, lambda z: z, rngs)
    names = tuple(f"x[{i + 1}]" for i in range(dim))
    return PosteriorDraws(parameter_names=names, chains=chains)


def fake_draws(names, per_chain_columns) -> PosteriorDraws:
    """PosteriorDraws built from explicit per-chain column arrays.

    ``per_chain_columns``: list over chains of dicts name -> 1-D array.
    """
    chains = []
    for cols in per_chain_columns:
        mat = np.column_stack([np.asarray(cols[n], dtype=float) for n in names])
        chains.append(
            ChainOutput(
                draws=None,
                constrained_draws=mat,
                accept_stats=np.array([]),
                divergences=0,
                step_size=float("nan"),
                mass_diag=np.array([]),
            )
        )
    return PosteriorDraws(parameter_names=tuple(names), chains=chains)
