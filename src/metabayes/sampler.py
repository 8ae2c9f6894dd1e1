"""Gradient-based MCMC: static-trajectory Hamiltonian Monte Carlo.

Each transition refreshes the momentum from a diagonal-mass Gaussian,
integrates a leapfrog trajectory of jittered length (uniform over
[1, L] steps with L chosen so step_size * L is about 1.5) and applies a
Metropolis correction on the Hamiltonian error.  Warmup adapts the step
size by dual averaging toward a target acceptance rate and estimates a
diagonal mass matrix in expanding memoryless windows.

All chains of a fit share one integrator: each leapfrog step evaluates
the log density of every chain that has transitions left as one stack of
points, (B, dim) -> (B,), (B, dim).  A chain whose trajectory ends makes
its Metropolis step, its adaptation and its next momentum and length
draws at once, and takes its next step in the same stacked evaluation as
the others; no chain waits for another's trajectory.  Everything else is
per chain: random stream, initialization, step size, mass, trajectory
lengths and warmup schedule.  Only the step-size search at the end of a
mass window runs on its own, as one-row evaluations.

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
# Leapfrog integration
# ---------------------------------------------------------------------------


@dataclass
class HMCState:
    """Position, log density and gradient of one chain.

    :func:`leapfrog` holds a stack of chains in one state: ``z`` and
    ``grad`` are then (B, dim) and ``logp`` is (B,).
    """

    z: np.ndarray
    logp: float | np.ndarray
    grad: np.ndarray


@dataclass
class _Trajectory:
    """One chain's leapfrog trajectory: start, initial momentum, step size, steps, mass."""

    start: HMCState
    p: np.ndarray
    eps: float
    n_steps: int
    mass: np.ndarray


# The end of a trajectory, (state, momentum), or None where it turned non-finite.
_End = tuple[HMCState, np.ndarray] | None


def _stacked(vg: ValueAndGrad) -> StackedValueAndGrad:
    """A one-point target evaluated on a stack, row by row."""

    def stacked(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = [vg(row) for row in z]
        logp = np.array([lp for lp, _ in values], dtype=float)
        return logp, np.array([g for _, g in values], dtype=float).reshape(z.shape)

    return stacked


def _drift(z: np.ndarray, p: np.ndarray, eps: np.ndarray, mass: np.ndarray) -> np.ndarray:
    return z + eps * p / mass


def _kick(p: np.ndarray, eps: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return p + eps * grad


def _integrate(
    vg: StackedValueAndGrad,
    trajectories: Sequence[_Trajectory],
    on_end: Callable[[int, _End], _Trajectory | None],
) -> None:
    """Leapfrog trajectories of a stack of chains, each restarted as soon as it ends.

    Row b starts on ``trajectories[b]``.  Each step drifts every row's
    position, evaluates ``vg`` once on the whole stack and kicks every
    row's momentum.  A trajectory ends after its ``n_steps``-th step, or
    as soon as its position, log density or momentum turns non-finite.
    ``on_end(b, end)`` then gets row b's end state and momentum (None if
    non-finite) and returns the row's next trajectory, which starts at
    once, or None to drop the row from the stack.  No row's arithmetic
    depends on another's, so each trajectory ends exactly as it would
    run alone.
    """
    n, dim = len(trajectories), trajectories[0].p.size
    live = np.arange(n)
    z, p, mass = np.empty((n, dim)), np.empty((n, dim)), np.empty((n, dim))
    step_eps, half_eps = np.empty((n, 1)), np.empty((n, 1))
    last = np.empty(n, dtype=np.int64)  # the step at which each row's trajectory ends

    def begin(i: int, traj: _Trajectory, first_step: int) -> None:
        z[i] = traj.start.z
        step_eps[i] = traj.eps
        half_eps[i] = 0.5 * traj.eps
        p[i] = _kick(traj.p, half_eps[i], traj.start.grad)
        mass[i] = traj.mass
        last[i] = first_step + traj.n_steps - 1

    for i, traj in enumerate(trajectories):
        begin(i, traj, 0)
    soonest = int(last.min())  # the first step at which some row ends
    step = -1
    while live.size:
        step += 1
        z = _drift(z, p, step_eps, mass)
        if not np.isfinite(z).all():
            # a row whose position turned non-finite ends before it is evaluated
            stopped = ~np.isfinite(z).all(axis=1)
            while stopped.any():
                keep = np.ones(live.size, dtype=bool)
                for i in np.flatnonzero(stopped):
                    nxt = on_end(int(live[i]), None)
                    if nxt is None:
                        keep[i] = False
                        continue
                    begin(i, nxt, step)
                    z[i] = _drift(z[i], p[i], step_eps[i], mass[i])
                live, z, p, mass, step_eps, half_eps, last = (
                    a[keep] for a in (live, z, p, mass, step_eps, half_eps, last)
                )
                stopped = ~np.isfinite(z).all(axis=1)
            if not live.size:
                return
            soonest = int(last.min())
        logp, grad = vg(z)
        ok = np.isfinite(logp)
        if step < soonest and ok.all():
            p = _kick(p, step_eps, grad)
            continue
        done = last == step
        p = _kick(p, np.where(done[:, None], half_eps, step_eps), grad)
        keep = np.ones(live.size, dtype=bool)
        for i in np.flatnonzero(done | ~ok):
            end = None
            if ok[i] and np.isfinite(p[i]).all():
                end = HMCState(z[i].copy(), float(logp[i]), grad[i].copy()), p[i].copy()
            nxt = on_end(int(live[i]), end)
            if nxt is None:
                keep[i] = False
            else:
                begin(i, nxt, step + 1)
        if not keep.all():
            live, z, p, mass, step_eps, half_eps, last = (
                a[keep] for a in (live, z, p, mass, step_eps, half_eps, last)
            )
        if live.size:
            soonest = int(last.min())


def _run_alone(vg: StackedValueAndGrad, traj: _Trajectory) -> _End:
    """The end of one trajectory, run as a one-row stack."""
    ends: list[_End] = [None]

    def record(_: int, end: _End) -> None:
        ends[0] = end

    _integrate(vg, [traj], record)
    return ends[0]


def leapfrog(
    vg: StackedValueAndGrad,
    state: HMCState,
    p: np.ndarray,
    eps: np.ndarray,
    n_steps: np.ndarray,
    mass_diag: np.ndarray,
) -> tuple[HMCState, np.ndarray, np.ndarray]:
    """Leapfrog trajectories of a stack of chains, one each.

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
    p = np.asarray(p, dtype=float)
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
    p_end = p.copy()
    ok = np.zeros(len(eps), dtype=bool)

    def record(b: int, result: _End) -> None:
        if result is not None:
            row, p_end[b] = result
            end.z[b], end.logp[b], end.grad[b] = row.z, row.logp, row.grad
            ok[b] = True

    trajectories = [
        _Trajectory(HMCState(state.z[b], state.logp[b], state.grad[b]), p[b], e, int(n), mass_diag[b])
        for b, (e, n) in enumerate(zip(eps.tolist(), n_steps.tolist()))
    ]
    _integrate(vg, trajectories, record)
    return end, p_end, ok


def _kinetic(p: np.ndarray, mass_diag: np.ndarray) -> np.ndarray:
    return 0.5 * np.add.reduce(p * p / mass_diag, axis=-1)


def _num_steps_cap(eps: float, max_steps: int) -> int:
    return max(1, min(max_steps, int(round(_TARGET_PATH_LENGTH / eps))))


def _draw_trajectory(
    state: HMCState, eps: float, mass: np.ndarray, rng: np.random.Generator, max_steps: int
) -> _Trajectory:
    """A transition's momentum and jittered number of steps, drawn in that order."""
    p = rng.standard_normal(mass.size) * np.sqrt(mass)
    n_steps = int(rng.integers(1, _num_steps_cap(eps, max_steps) + 1))
    return _Trajectory(state, p, eps, n_steps, mass)


def _metropolis(
    traj: _Trajectory, end: _End, rng: np.random.Generator
) -> tuple[HMCState, float, bool]:
    """Accept or reject a trajectory's end: (state, acceptance statistic, divergent)."""
    u = rng.random()  # drawn whatever the outcome, keeping streams aligned
    if end is not None:
        proposal, p = end
        with np.errstate(over="ignore", invalid="ignore"):
            h0 = -traj.start.logp + _kinetic(traj.p, traj.mass)
            dh = float((-proposal.logp + _kinetic(p, traj.mass)) - h0)
        if math.isfinite(dh) and abs(dh) <= DIVERGENCE_THRESHOLD:
            # exp(-delta_h) overflows for energy drops beyond ~709.8
            accept = 1.0 if dh <= 0 else math.exp(-dh)
            return (proposal if u < accept else traj.start), accept, False
    return traj.start, 0.0, True


def hmc_transition(
    vg: ValueAndGrad,
    state: HMCState,
    eps: float,
    mass_diag: np.ndarray,
    rng: np.random.Generator,
    max_leapfrog_steps: int = 1024,
) -> tuple[HMCState, float, bool]:
    """One HMC transition of one chain: returns (state, acceptance statistic, divergent).

    ``vg`` evaluates one point.  The transition draws its momentum, its
    number of steps and its acceptance uniform from ``rng``, in that
    order, exactly as each chain of :func:`run_chains` does.  Divergent
    transitions (non-finite states, or |energy error| above
    ``DIVERGENCE_THRESHOLD``) are rejected and flagged, not raised.
    """
    mass_diag = np.asarray(mass_diag, dtype=float)
    if not eps > 0:
        raise ValueError("step size must be > 0")
    if np.any(mass_diag <= 0):
        raise ValueError("mass_diag must be strictly positive")
    traj = _draw_trajectory(state, eps, mass_diag, rng, max_leapfrog_steps)
    return _metropolis(traj, _run_alone(_stacked(vg), traj), rng)


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
    """Online mean/variance over the draws of one adaptation window."""

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
    rng: np.random.Generator,
) -> float:
    """Double/halve one chain's step size until one-step acceptance crosses 0.5.

    Every try is a one-step trajectory from ``state`` with the same
    momentum, run as a one-row stack.
    """
    p = rng.standard_normal(mass.size) * np.sqrt(mass)
    with np.errstate(over="ignore"):
        h0 = -state.logp + _kinetic(p, mass)

    def log_ratio(eps: float) -> float:
        end = _run_alone(vg, _Trajectory(state, p, eps, 1, mass))
        if end is None:
            return -math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            return -(-end[0].logp + _kinetic(end[1], mass)) + h0

    eps = 1.0
    up = log_ratio(eps) > _LOG_HALF
    for _ in range(100):
        eps *= 2.0 if up else 0.5
        ratio = log_ratio(eps)
        crossed = ratio <= _LOG_HALF if up else ratio >= _LOG_HALF
        if crossed or not 1e-10 < eps < 1e7:
            break
    return eps


class _Chain:
    """One chain's schedule of transitions: warmup adaptation, then kept draws.

    :meth:`end` takes the end of the chain's current trajectory, makes
    the Metropolis step and, during warmup, the adaptation, and returns
    the chain's next trajectory, or None once it has run ``n_iter``
    transitions.  At the end of each mass window the chain searches a new
    step size at once, on its own.
    """

    def __init__(
        self,
        vg: StackedValueAndGrad,
        state: HMCState,
        rng: np.random.Generator,
        config: SamplerConfig,
        windows: list[tuple[int, int]] | None,
        n_iter: int,
    ):
        self.vg, self.state, self.rng, self.config = vg, state, rng, config
        self.n_iter = n_iter
        self.t = 0
        self.windows = iter(windows or [])
        self.window = next(self.windows, None)
        self.welford: _Welford | None = None
        self.warmup_divergences = 0
        n_keep = n_iter - config.warmup
        self.draws = np.empty((n_keep, state.z.size))
        self.accept_stats = np.empty(n_keep)
        self.divergences = 0
        self._restart_adaptation(np.ones(state.z.size))
        self._next()

    def _restart_adaptation(self, mass: np.ndarray) -> None:
        self.mass = mass
        self.eps = find_reasonable_step_size(self.vg, self.state, mass, self.rng)
        self.da = DualAveraging.start_at(self.eps)

    def _next(self) -> _Trajectory | None:
        self.trajectory = None
        if self.t < self.n_iter:
            self.trajectory = _draw_trajectory(
                self.state, self.eps, self.mass, self.rng, self.config.max_leapfrog_steps
            )
        return self.trajectory

    def end(self, end: _End) -> _Trajectory | None:
        self.state, accept, divergent = _metropolis(self.trajectory, end, self.rng)
        t, warmup = self.t, self.config.warmup
        self.t += 1
        if t < warmup:
            self._adapt(t, accept, divergent)
        else:
            self.draws[t - warmup] = self.state.z
            self.accept_stats[t - warmup] = accept
            self.divergences += divergent
        return self._next()

    def _adapt(self, t: int, accept: float, divergent: bool) -> None:
        self.warmup_divergences += divergent
        self.eps = self.da.update(accept, self.config.target_accept)
        window = self.window
        if window is not None and window[0] <= t:
            if self.welford is None:
                self.welford = _Welford(self.state.z.shape)
            self.welford.add(self.state.z)
            if t == window[1] - 1:
                # mass = inverse posterior variance, so step sizes scale
                # with each coordinate's posterior spread
                self._restart_adaptation(1.0 / self.welford.regularized_var())
                self.welford = None
                self.window = next(self.windows, None)
        if t == self.config.warmup - 1:
            if self.warmup_divergences == self.config.warmup:
                raise SamplingError(
                    "every warmup transition diverged; consider a non-centered "
                    "parametrization or a smaller init_radius"
                )
            self.eps = self.da.averaged()


def _run_stack(
    vg: StackedValueAndGrad,
    dim: int,
    config: SamplerConfig,
    rngs: Sequence[np.random.Generator],
    n_iter: int,
) -> list[_Chain]:
    """Run the first ``n_iter`` transitions of one chain per stream.

    Every leapfrog step evaluates ``vg`` once, on every chain that has
    transitions left; each chain starts its next transition as soon as
    its trajectory ends.
    """
    state = _initial_state(vg, dim, config.init_radius, rngs)
    windows = warmup_windows(config.warmup)
    if windows is None and config.warmup > 0:
        warnings.warn(
            f"warmup={config.warmup} is too short for mass adaptation; "
            "adapting step size only",
            stacklevel=3,
        )
    chains = [
        _Chain(vg, HMCState(state.z[c], state.logp[c], state.grad[c]), rng, config, windows, n_iter)
        for c, rng in enumerate(rngs)
    ]
    if n_iter:
        _integrate(vg, [c.trajectory for c in chains], lambda b, end: chains[b].end(end))
    return chains


def adapt_warmup(
    posterior: Posterior,
    config: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Run one chain's warmup adaptation from a fresh initialization.

    Deterministic given the generator state: repeated calls with an
    identically seeded generator return bit-identical results.
    """
    (chain,) = _run_stack(posterior.logp_and_grad, posterior.dim, config, [rng], config.warmup)
    return float(chain.eps), chain.mass


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
    rngs: Sequence[np.random.Generator],
) -> list[ChainOutput]:
    """Warm up and sample one chain per stream; ``constrain`` maps draws row-wise.

    The number and seed of ``config`` are not used: the streams define
    the chains, so one call can hold the chains of several fits.
    """
    return [
        ChainOutput(
            draws=c.draws,
            constrained_draws=constrain(c.draws),
            accept_stats=c.accept_stats,
            divergences=c.divergences,
            step_size=float(c.eps),
            mass_diag=c.mass,
        )
        for c in _run_stack(vg, dim, config, rngs, config.iter)
    ]


def run_chains(
    spec: ModelSpec, dataset: Dataset, config: SamplerConfig | None = None
) -> PosteriorDraws:
    """Fit a model: run all chains and collect post-warmup constrained draws.

    The chains share one stacked posterior evaluation per leapfrog step.
    Each keeps its own random stream and adaptation, so chain c's draws
    are the same whatever the number of chains beside it.
    """
    config = config or SamplerConfig()
    post = Posterior(spec, dataset)
    rngs = [chain_rng(config.seed, c) for c in range(config.chains)]
    chains = _sample_chains(post.logp_and_grad, post.dim, config, post.layout.constrain, rngs)
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
