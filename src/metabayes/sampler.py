"""Gradient-based MCMC: static-trajectory Hamiltonian Monte Carlo.

Each transition refreshes the momentum from a diagonal-mass Gaussian,
integrates a leapfrog trajectory of jittered length (uniform over
[1, L] steps with L chosen so step_size * L is about 1.5) and applies a
Metropolis correction on the Hamiltonian error.  Warmup adapts the step
size by dual averaging toward a target acceptance rate and estimates a
diagonal mass matrix in expanding memoryless windows.

All chains of a fit step in lockstep: each leapfrog step evaluates the
log density of every chain still integrating as one stack of points,
(B, dim) -> (B,), (B, dim), and a chain whose trajectory has ended holds
its state until the longest one finishes.  Everything else is per chain:
random stream, initialization, step size, mass and trajectory lengths.

Determinism: chain c of a run seeded with s draws from
``numpy.random.Generator(Philox(SeedSequence(entropy=s, spawn_key=(c,))))``,
a counter-based generator.  A stacked evaluation rounds each row exactly
as a one-point evaluation would, so results are reproducible bit for bit
and chain c's draws do not depend on how many chains run beside it.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .model import ModelSpec
from .posterior import Posterior

# Energy error beyond which a transition counts as divergent.
DIVERGENCE_THRESHOLD = 1000.0

# Dual-averaging constants and the nominal eps * L trajectory length.
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75
_TARGET_PATH_LENGTH = 1.5
_LOG_HALF = math.log(0.5)

# log density and gradient of one point (dim,), or of a stack (B, dim)
ValueAndGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]
StackedValueAndGrad = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class SamplingError(RuntimeError):
    """Sampling could not produce usable draws."""


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 4
    iter: int = 4000
    warmup: int = 2000
    seed: int = 1
    target_accept: float = 0.8
    max_leapfrog_steps: int = 1024
    init_radius: float = 2.0

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if not 0 <= self.warmup < self.iter:
            raise ValueError("need 0 <= warmup < iter")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must be in (0, 1)")
        if self.max_leapfrog_steps < 1:
            raise ValueError("max_leapfrog_steps must be >= 1")
        if self.init_radius <= 0:
            raise ValueError("init_radius must be > 0")


@dataclass
class ChainOutput:
    """Post-warmup output of one chain."""

    draws: np.ndarray | None  # (n_kept, dim) unconstrained; None when loaded from CSV
    constrained_draws: np.ndarray  # (n_kept, dim)
    accept_stats: np.ndarray
    divergences: int
    step_size: float
    mass_diag: np.ndarray


@dataclass
class PosteriorDraws:
    """Draws of all chains with a shared parameter naming."""

    parameter_names: tuple[str, ...]
    chains: list[ChainOutput]

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def n_draws(self) -> int:
        return self.chains[0].constrained_draws.shape[0] if self.chains else 0

    def index_of(self, name: str) -> int:
        try:
            return self.parameter_names.index(name)
        except ValueError:
            raise KeyError(f"unknown parameter '{name}'") from None

    def constrained(self, name: str) -> np.ndarray:
        """Per-chain draws of one parameter, shape (n_chains, n_draws)."""
        j = self.index_of(name)
        return np.stack([c.constrained_draws[:, j] for c in self.chains])

    def pooled(self, name: str) -> np.ndarray:
        return self.constrained(name).reshape(-1)

    def names_matching(self, prefix: str) -> tuple[str, ...]:
        """All parameter names of one block, e.g. ``mu`` -> ``mu[1]``, ..."""
        exact = [n for n in self.parameter_names if n == prefix]
        indexed = [n for n in self.parameter_names if n.startswith(prefix + "[")]
        return tuple(exact + indexed)

    @property
    def total_divergences(self) -> int:
        return sum(c.divergences for c in self.chains)


# ---------------------------------------------------------------------------
# Lockstep leapfrog integration
# ---------------------------------------------------------------------------


@dataclass
class HMCState:
    """Position, log density and gradient of one chain.

    The lockstep functions hold a stack of chains in one state: ``z`` and
    ``grad`` are then (B, dim) and ``logp`` is (B,).
    """

    z: np.ndarray
    logp: float | np.ndarray
    grad: np.ndarray


def _stacked(vg: ValueAndGrad) -> StackedValueAndGrad:
    """A one-point target evaluated on a stack, row by row."""

    def stacked(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = [vg(row) for row in z]
        logp = np.array([lp for lp, _ in values], dtype=float)
        return logp, np.array([g for _, g in values], dtype=float).reshape(z.shape)

    return stacked


def leapfrog(
    vg: StackedValueAndGrad,
    state: HMCState,
    p: np.ndarray,
    eps: np.ndarray,
    n_steps: np.ndarray,
    mass_diag: np.ndarray,
) -> tuple[HMCState, np.ndarray, np.ndarray]:
    """Leapfrog trajectories of a stack of chains, stepped in lockstep.

    Chain b takes ``n_steps[b]`` steps of size ``eps[b]`` from
    ``(state.z[b], p[b])`` under its diagonal mass ``mass_diag[b]``.  Each
    step evaluates ``vg`` once, on the chains still integrating; the
    gradient at the start comes from ``state``.  Returns the end states,
    the end momenta and a flag per chain that is False where the position,
    log density or momentum turned non-finite: that chain stopped there
    and its returned state is its starting one.

    The integrator is symplectic and time-reversible: integrating,
    negating the momentum and integrating again returns the starting
    point.
    """
    eps = np.asarray(eps, dtype=float)
    n_steps = np.asarray(n_steps)
    mass_diag = np.asarray(mass_diag, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("step size must be > 0")
    if np.any(n_steps < 1):
        raise ValueError("n_steps must be >= 1")
    if np.any(mass_diag <= 0):
        raise ValueError("mass_diag must be strictly positive")
    end = HMCState(state.z.copy(), np.array(state.logp, dtype=float), state.grad.copy())
    p_end = np.array(p, dtype=float)
    ok = np.ones(len(eps), dtype=bool)
    # the chains still integrating, and their working arrays
    live = np.arange(len(eps))
    step_eps = eps[:, None]
    half_eps = 0.5 * step_eps
    z, mass, last = state.z, mass_diag, n_steps - 1
    soonest = int(last.min())  # the first step at which some chain ends
    p = p + half_eps * state.grad
    for step in range(int(n_steps.max())):
        z = z + step_eps * p / mass
        finite = np.isfinite(z)
        if not finite.all():
            keep = finite.all(axis=1)
            ok[live[~keep]] = False
            live, z, p, mass, last, step_eps, half_eps = (
                a[keep] for a in (live, z, p, mass, last, step_eps, half_eps)
            )
            if not live.size:
                break
        logp, grad = vg(z)
        keep = np.isfinite(logp)
        if step < soonest and keep.all():
            p = p + step_eps * grad
            continue
        done = last == step
        p = p + np.where(done[:, None], half_eps, step_eps) * grad
        ok[live[~keep]] = False
        finished = done & keep
        finished[finished] = np.isfinite(p[finished]).all(axis=1)
        ok[live[done & ~finished]] = False
        idx = live[finished]
        end.z[idx], end.logp[idx], end.grad[idx] = z[finished], logp[finished], grad[finished]
        p_end[idx] = p[finished]
        keep &= ~done
        live, z, p, mass, last, step_eps, half_eps = (
            a[keep] for a in (live, z, p, mass, last, step_eps, half_eps)
        )
        if live.size:
            soonest = int(last.min())
    return end, p_end, ok


def _kinetic(p: np.ndarray, mass_diag: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * np.add.reduce(p * p / mass_diag, axis=-1)


def _num_steps_cap(eps: float, max_steps: int) -> int:
    return max(1, min(max_steps, int(round(_TARGET_PATH_LENGTH / eps))))


def _momenta(rngs: Sequence[np.random.Generator], mass: np.ndarray) -> np.ndarray:
    """One momentum draw per chain, from each chain's own stream."""
    dim = mass.shape[1]
    return np.array([rng.standard_normal(dim) for rng in rngs]) * np.sqrt(mass)


def _transitions(
    vg: StackedValueAndGrad,
    state: HMCState,
    eps: np.ndarray,
    mass: np.ndarray,
    rngs: Sequence[np.random.Generator],
    max_leapfrog_steps: int,
) -> tuple[HMCState, np.ndarray, np.ndarray]:
    """One HMC transition of every chain of a stack, in lockstep.

    Returns the new states, the acceptance statistics and the divergence
    flags.  Each chain draws its momentum, its number of steps and its
    acceptance uniform from its own stream, in that order.
    """
    p = _momenta(rngs, mass)
    n_steps = np.array(
        [
            rng.integers(1, _num_steps_cap(e, max_leapfrog_steps) + 1)
            for rng, e in zip(rngs, eps.tolist())
        ]
    )
    h0 = -state.logp + _kinetic(p, mass)
    proposal, p_new, ok = leapfrog(vg, state, p, eps, n_steps, mass)
    with np.errstate(invalid="ignore"):
        delta_h = (-proposal.logp + _kinetic(p_new, mass)) - h0
    accept = np.zeros(len(rngs))
    divergent = np.zeros(len(rngs), dtype=bool)
    take = np.zeros(len(rngs), dtype=bool)
    for c, rng in enumerate(rngs):
        u = rng.random()  # drawn whatever the outcome, keeping streams aligned
        dh = float(delta_h[c])
        if not ok[c] or not math.isfinite(dh) or abs(dh) > DIVERGENCE_THRESHOLD:
            divergent[c] = True
            continue
        # exp(-delta_h) overflows for energy drops beyond ~709.8
        accept[c] = 1.0 if dh <= 0 else math.exp(-dh)
        take[c] = u < accept[c]
    new = HMCState(
        np.where(take[:, None], proposal.z, state.z),
        np.where(take, proposal.logp, state.logp),
        np.where(take[:, None], proposal.grad, state.grad),
    )
    return new, accept, divergent


def hmc_transition(
    vg: ValueAndGrad,
    state: HMCState,
    eps: float,
    mass_diag: np.ndarray,
    rng: np.random.Generator,
    max_leapfrog_steps: int = 1024,
) -> tuple[HMCState, float, bool]:
    """One HMC transition of one chain: returns (state, acceptance statistic, divergent).

    ``vg`` evaluates one point.  This is the one-chain case of the
    lockstep transition that :func:`run_chains` steps all chains with.
    Divergent transitions (non-finite states, or |energy error| above
    ``DIVERGENCE_THRESHOLD``) are rejected and flagged, not raised.
    """
    stack = HMCState(state.z[None], np.array([state.logp], dtype=float), state.grad[None])
    new, accept, divergent = _transitions(
        _stacked(vg),
        stack,
        np.array([eps], dtype=float),
        np.asarray(mass_diag, dtype=float)[None],
        [rng],
        max_leapfrog_steps,
    )
    return HMCState(new.z[0], float(new.logp[0]), new.grad[0]), float(accept[0]), bool(divergent[0])


# ---------------------------------------------------------------------------
# Warmup adaptation
# ---------------------------------------------------------------------------


@dataclass
class DualAveraging:
    """Nesterov dual averaging of log step size toward a target acceptance."""

    mu: float
    log_eps: float = 0.0
    log_eps_bar: float = 0.0
    h_bar: float = 0.0
    t: int = 0

    @classmethod
    def start_at(cls, eps: float) -> "DualAveraging":
        return cls(mu=math.log(10.0 * eps), log_eps=math.log(eps))

    def update(self, accept_stat: float, target: float) -> float:
        self.t += 1
        eta = 1.0 / (self.t + _DA_T0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (target - accept_stat)
        self.log_eps = self.mu - math.sqrt(self.t) / _DA_GAMMA * self.h_bar
        w = self.t ** (-_DA_KAPPA)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    def averaged(self) -> float:
        return math.exp(self.log_eps_bar)


class _Welford:
    """Online mean/variance over the draws of one adaptation window, per chain."""

    def __init__(self, shape: tuple[int, ...]):
        self.n = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, x: np.ndarray) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def regularized_var(self) -> np.ndarray:
        """Shrunk variance estimate, kept strictly positive."""
        if self.n < 2:
            return np.ones_like(self.mean)
        var = self.m2 / (self.n - 1)
        w = self.n / (self.n + 5.0)
        return w * var + 1e-3 * (1.0 - w)


def warmup_windows(warmup: int) -> list[tuple[int, int]] | None:
    """Mass-adaptation windows: 75 fast, slow windows doubling from 25, 50 fast.

    Returns None when the warmup is too short for the schedule; the last
    slow window absorbs any remainder.
    """
    init_buffer, term_buffer, base = 75, 50, 25
    if warmup < init_buffer + term_buffer + base:
        return None
    windows = []
    cur, end = init_buffer, warmup - term_buffer
    width = base
    while True:
        nxt = cur + width
        if nxt + 2 * width > end:
            windows.append((cur, end))
            break
        windows.append((cur, nxt))
        cur, width = nxt, 2 * width
    return windows


def find_reasonable_step_size(
    vg: StackedValueAndGrad,
    state: HMCState,
    mass: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Per chain, double/halve the step size until one-step acceptance crosses 0.5."""
    p = _momenta(rngs, mass)
    h0 = -state.logp + _kinetic(p, mass)

    def log_ratio(eps: np.ndarray, rows: np.ndarray) -> np.ndarray:
        start = HMCState(state.z[rows], state.logp[rows], state.grad[rows])
        end, p_new, ok = leapfrog(vg, start, p[rows], eps, np.ones(rows.size, int), mass[rows])
        with np.errstate(invalid="ignore"):
            ratio = -(-end.logp + _kinetic(p_new, mass[rows])) + h0[rows]
        return np.where(ok, ratio, -math.inf)

    eps = np.ones(len(rngs))
    rows = np.arange(len(rngs))
    up = log_ratio(eps, rows) > _LOG_HALF
    for _ in range(100):
        eps[rows] *= np.where(up[rows], 2.0, 0.5)
        ratio = log_ratio(eps[rows], rows)
        e = eps[rows]
        crossed = np.where(up[rows], ratio <= _LOG_HALF, ratio >= _LOG_HALF)
        rows = rows[~(crossed | ~((1e-10 < e) & (e < 1e7)))]
        if not rows.size:
            break
    return eps


def _warmup(
    vg: StackedValueAndGrad,
    state: HMCState,
    config: SamplerConfig,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, HMCState]:
    """Adapt each chain's (step size, diagonal mass) over the warmup phase."""
    mass = np.ones(state.z.shape)
    eps = find_reasonable_step_size(vg, state, mass, rngs)
    das = [DualAveraging.start_at(e) for e in eps.tolist()]
    windows = warmup_windows(config.warmup)
    if windows is None and config.warmup > 0:
        warnings.warn(
            f"warmup={config.warmup} is too short for mass adaptation; "
            "adapting step size only",
            stacklevel=3,
        )
    window_iter = iter(windows or [])
    window = next(window_iter, None)
    welford: _Welford | None = None
    divergent = np.zeros(len(rngs), dtype=int)
    for t in range(config.warmup):
        state, accept, div = _transitions(
            vg, state, eps, mass, rngs, config.max_leapfrog_steps
        )
        divergent += div
        eps = np.array(
            [da.update(a, config.target_accept) for da, a in zip(das, accept.tolist())]
        )
        if window is not None and window[0] <= t:
            if welford is None:
                welford = _Welford(state.z.shape)
            welford.add(state.z)
            if t == window[1] - 1:
                # mass = inverse posterior variance, so step sizes scale
                # with each coordinate's posterior spread
                mass = 1.0 / welford.regularized_var()
                welford = None
                window = next(window_iter, None)
                eps = find_reasonable_step_size(vg, state, mass, rngs)
                das = [DualAveraging.start_at(e) for e in eps.tolist()]
    if config.warmup > 0:
        if np.any(divergent == config.warmup):
            raise SamplingError(
                "every warmup transition diverged; consider a non-centered "
                "parametrization or a smaller init_radius"
            )
        eps = np.array([da.averaged() for da in das])
    return eps, mass, state


def adapt_warmup(
    posterior: Posterior,
    config: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Run one chain's warmup adaptation from a fresh initialization.

    Deterministic given the generator state: repeated calls with an
    identically seeded generator return bit-identical results.
    """
    vg = posterior.logp_and_grad
    state = _initial_state(vg, posterior.dim, config.init_radius, [rng])
    eps, mass, _ = _warmup(vg, state, config, [rng])
    return float(eps[0]), mass[0]


def _initial_state(
    vg: StackedValueAndGrad,
    dim: int,
    init_radius: float,
    rngs: Sequence[np.random.Generator],
) -> HMCState:
    """Per chain, uniform draws in [-init_radius, init_radius]^dim until one has finite density."""
    state = HMCState(np.empty((len(rngs), dim)), np.empty(len(rngs)), np.empty((len(rngs), dim)))
    todo = np.arange(len(rngs))
    for _ in range(100):
        z = np.array([rngs[c].uniform(-init_radius, init_radius, size=dim) for c in todo])
        logp, grad = vg(z)
        good = np.isfinite(logp) & np.isfinite(grad).all(axis=1)
        found = todo[good]
        state.z[found], state.logp[found], state.grad[found] = z[good], logp[good], grad[good]
        todo = todo[~good]
        if not todo.size:
            return state
    raise SamplingError(
        "could not find an initialization with finite density in 100 tries; "
        "consider a smaller init_radius"
    )


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """Counter-based per-chain stream: Philox keyed by (seed, chain)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,))
    return np.random.Generator(np.random.Philox(ss))


def _sample_chains(
    vg: StackedValueAndGrad,
    dim: int,
    config: SamplerConfig,
    constrain: Callable[[np.ndarray], np.ndarray],
) -> list[ChainOutput]:
    """Warm up and sample all chains in lockstep; ``constrain`` maps draws row-wise."""
    rngs = [chain_rng(config.seed, c) for c in range(config.chains)]
    state = _initial_state(vg, dim, config.init_radius, rngs)
    eps, mass, state = _warmup(vg, state, config, rngs)
    n_keep = config.iter - config.warmup
    draws = np.empty((config.chains, n_keep, dim))
    accepts = np.empty((config.chains, n_keep))
    divergences = np.zeros(config.chains, dtype=int)
    for i in range(n_keep):
        state, accepts[:, i], div = _transitions(
            vg, state, eps, mass, rngs, config.max_leapfrog_steps
        )
        divergences += div
        draws[:, i] = state.z
    return [
        ChainOutput(
            draws=draws[c],
            constrained_draws=constrain(draws[c]),
            accept_stats=accepts[c],
            divergences=int(divergences[c]),
            step_size=float(eps[c]),
            mass_diag=mass[c],
        )
        for c in range(config.chains)
    ]


def run_chains(
    spec: ModelSpec, dataset: Dataset, config: SamplerConfig | None = None
) -> PosteriorDraws:
    """Fit a model: run all chains and collect post-warmup constrained draws.

    The chains step in lockstep through stacked posterior evaluations.
    Each keeps its own random stream and adaptation, so chain c's draws
    are the same whatever the number of chains beside it.
    """
    config = config or SamplerConfig()
    post = Posterior(spec, dataset)
    chains = _sample_chains(post.logp_and_grad, post.dim, config, post.layout.constrain)
    return PosteriorDraws(parameter_names=post.layout.parameter_names, chains=chains)


# ---------------------------------------------------------------------------
# Draw dumps
# ---------------------------------------------------------------------------


def write_draws_csv(draws: PosteriorDraws, path_or_buffer) -> None:
    """Dump constrained draws: header ``chain, iteration, <names...>``.

    Floats are written with ``repr`` (shortest round-trip form), so the
    same draws always produce byte-identical files.
    """
    own = isinstance(path_or_buffer, (str, os.PathLike))
    fh = open(path_or_buffer, "w", newline="") if own else path_or_buffer
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["chain", "iteration", *draws.parameter_names])
        for c, chain in enumerate(draws.chains, start=1):
            for i, row in enumerate(chain.constrained_draws, start=1):
                writer.writerow([c, i, *[repr(float(v)) for v in row]])
    finally:
        if own:
            fh.close()


def read_draws_csv(path_or_buffer) -> PosteriorDraws:
    """Load a draw dump written by :func:`write_draws_csv`.

    Only constrained draws are recovered; sampler metadata (step size,
    mass, acceptance) is not part of the dump.
    """
    own = isinstance(path_or_buffer, (str, os.PathLike))
    fh = open(path_or_buffer, "r", newline="") if own else path_or_buffer
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["chain", "iteration"]:
            raise ValueError("not a draws CSV: expected 'chain, iteration, ...' header")
        names = tuple(header[2:])
        by_chain: dict[int, list[list[float]]] = {}
        for row in reader:
            by_chain.setdefault(int(row[0]), []).append([float(v) for v in row[2:]])
    finally:
        if own:
            fh.close()
    chains = []
    for c in sorted(by_chain):
        arr = np.asarray(by_chain[c])
        chains.append(
            ChainOutput(
                draws=None,
                constrained_draws=arr,
                accept_stats=np.array([]),
                divergences=0,
                step_size=math.nan,
                mass_diag=np.array([]),
            )
        )
    return PosteriorDraws(parameter_names=names, chains=chains)
