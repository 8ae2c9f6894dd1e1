"""HMC integrator, adaptation, chain driver and draw dumps."""

import io
import math

import numpy as np
import pytest

from helpers import run_raw_chains

from metabayes.data import builtin_dataset
from metabayes.diagnostics import summarize
from metabayes.model import ModelSpec
from metabayes.posterior import Posterior
from metabayes.sampler import (
    HMCState,
    SamplerConfig,
    SamplingError,
    _stacked,
    _warmup,
    adapt_warmup,
    chain_rng,
    find_reasonable_step_size,
    hmc_transition,
    leapfrog,
    read_draws_csv,
    run_chains,
    warmup_windows,
    write_draws_csv,
)


def gaussian_vg(scales):
    """Independent zero-mean Gaussian target with given coordinate scales."""
    var = np.asarray(scales, dtype=float) ** 2

    def vg(z):
        return float(-0.5 * np.sum(z * z / var)), -z / var

    return vg


STD5 = gaussian_vg(np.ones(5))


def stacked_harmonic(z):
    """Standard Gaussian target on a stack of points: log p = -|z|^2 / 2."""
    return -0.5 * np.sum(z * z, axis=-1), -z


def start(z, vg=stacked_harmonic):
    """Lockstep state of a stack of positions."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    return HMCState(z, *vg(z))


class TestLeapfrog:
    """The lockstep integrator that transitions and the step-size search run."""

    def test_energy_conservation_on_harmonic_oscillator(self):
        z0, p0 = np.array([[1.0]]), np.array([[0.0]])
        h0 = 0.5 * (z0[0, 0] ** 2 + p0[0, 0] ** 2)
        end, p, ok = leapfrog(stacked_harmonic, start(z0), p0, [0.1], [62], np.ones((1, 1)))
        h1 = 0.5 * (end.z[0, 0] ** 2 + p[0, 0] ** 2)
        assert ok[0] and abs(h1 - h0) < 1e-3

    def test_reversibility(self):
        rng = np.random.default_rng(0)
        vg = _stacked(gaussian_vg([1.0, 3.0, 0.5]))
        z0 = rng.normal(size=(1, 3))
        p0 = rng.normal(size=(1, 3))
        mass = np.array([[1.0, 0.5, 2.0]])
        s1, p1, _ = leapfrog(vg, start(z0, vg), p0, [0.05], [37], mass)
        s2, p2, _ = leapfrog(vg, s1, -p1, [0.05], [37], mass)
        np.testing.assert_allclose(s2.z, z0, atol=1e-10)
        np.testing.assert_allclose(-p2, p0, atol=1e-10)

    def test_single_step_matches_hand_computation(self):
        # z=1, p=0, eps=0.1 on the standard Gaussian:
        # p_half = -0.05; z' = 1 + 0.1*(-0.05) = 0.995; p' = -0.05 - 0.05*0.995
        end, p, ok = leapfrog(
            stacked_harmonic, start([1.0]), np.array([[0.0]]), [0.1], [1], np.ones((1, 1))
        )
        assert end.z[0, 0] == pytest.approx(0.995, abs=1e-15)
        assert p[0, 0] == pytest.approx(-0.09975, abs=1e-15)
        assert end.logp[0] == -0.5 * end.z[0, 0] ** 2 and ok[0]

    def test_lockstep_chains_match_chains_run_alone(self):
        rng = np.random.default_rng(5)
        z0, p0 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        eps, n_steps = np.array([0.1, 0.3, 0.2]), np.array([7, 2, 11])
        mass = rng.uniform(0.5, 2.0, size=(3, 2))
        end, p, ok = leapfrog(stacked_harmonic, start(z0), p0, eps, n_steps, mass)
        assert ok.all()
        for b in range(3):
            one, p_one, _ = leapfrog(
                stacked_harmonic, start(z0[b]), p0[b:b + 1], eps[b:b + 1], n_steps[b:b + 1],
                mass[b:b + 1],
            )
            np.testing.assert_array_equal(end.z[b], one.z[0])
            np.testing.assert_array_equal(p[b], p_one[0])
            assert end.logp[b] == one.logp[0]

    def test_chain_leaving_the_support_stops_alone(self):
        def half_line(z):  # density only on z > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(z[:, 0] > 0, np.log(z[:, 0]), -np.inf), 1.0 / z

        z0 = np.array([[0.05], [5.0]])
        state = HMCState(z0, *half_line(z0))
        p0 = np.array([[-3.0], [1.0]])
        end, _, ok = leapfrog(half_line, state, p0, [0.1, 0.1], [20, 20], np.ones((2, 1)))
        assert list(ok) == [False, True]
        np.testing.assert_array_equal(end.z[0], z0[0])  # held at its start
        assert end.z[1, 0] > 5.0

    def test_zero_step_size_forbidden(self):
        with pytest.raises(ValueError):
            leapfrog(stacked_harmonic, start([0.0]), np.zeros((1, 1)), [0.0], [1], np.ones((1, 1)))

    def test_zero_steps_forbidden(self):
        with pytest.raises(ValueError):
            leapfrog(stacked_harmonic, start([0.0]), np.zeros((1, 1)), [0.1], [0], np.ones((1, 1)))

    def test_nonpositive_mass_forbidden(self):
        with pytest.raises(ValueError):
            leapfrog(stacked_harmonic, start([0.0]), np.zeros((1, 1)), [0.1], [1], np.zeros((1, 1)))


class TestTransition:
    def test_standard_normal_calibration(self):
        cfg = SamplerConfig(chains=4, iter=2500, warmup=500, seed=7)
        draws = run_raw_chains(STD5, 5, cfg)
        pooled = np.concatenate([c.constrained_draws for c in draws.chains])
        np.testing.assert_allclose(pooled.mean(axis=0), np.zeros(5), atol=0.05)
        np.testing.assert_allclose(pooled.std(axis=0, ddof=1), np.ones(5), atol=0.05)

    def test_accept_stats_are_probabilities(self):
        cfg = SamplerConfig(chains=2, iter=600, warmup=300, seed=3)
        draws = run_raw_chains(STD5, 5, cfg)
        for chain in draws.chains:
            assert np.all(chain.accept_stats >= 0) and np.all(chain.accept_stats <= 1)

    def test_dual_averaging_reaches_target_acceptance(self):
        cfg = SamplerConfig(chains=2, iter=2000, warmup=1000, seed=11, target_accept=0.8)
        draws = run_raw_chains(STD5, 5, cfg)
        realized = np.mean([c.accept_stats.mean() for c in draws.chains])
        assert 0.7 <= realized <= 0.95

    def test_correlated_gaussian_covariance_recovery(self):
        cov = np.array([[1.0, 0.7], [0.7, 1.0]])
        prec = np.linalg.inv(cov)

        def vg(z):
            return float(-0.5 * z @ prec @ z), -prec @ z

        cfg = SamplerConfig(chains=4, iter=2500, warmup=500, seed=5)
        draws = run_raw_chains(vg, 2, cfg)
        pooled = np.concatenate([c.constrained_draws for c in draws.chains])
        sample_cov = np.cov(pooled.T)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.10

    def test_transition_signature(self):
        rng = np.random.default_rng(0)
        state = HMCState(np.zeros(5), *STD5(np.zeros(5)))
        new_state, accept, divergent = hmc_transition(STD5, state, 0.5, np.ones(5), rng)
        assert 0.0 <= accept <= 1.0
        assert divergent in (False, True)
        assert new_state.z.shape == (5,)

    def test_large_energy_drop_is_accepted(self):
        """A proposal 800 nats up has exp(-delta_h) = e^800: accept with statistic 1."""

        def cliff(z):  # flat, 800 nats higher away from the origin
            return (800.0 if abs(z[0]) > 1e-9 else 0.0), np.zeros(1)

        state = HMCState(np.zeros(1), *cliff(np.zeros(1)))
        # eps = 1.5 caps the trajectory at one step
        new_state, accept, divergent = hmc_transition(
            cliff, state, 1.5, np.ones(1), np.random.default_rng(0)
        )
        assert accept == 1.0 and not divergent
        assert new_state.logp == 800.0


class TestWarmupAdaptation:
    def test_mass_recovers_coordinate_scales(self):
        vg = gaussian_vg([1.0, 10.0])
        cfg = SamplerConfig(chains=1, iter=1600, warmup=1500, seed=2)
        rng = chain_rng(cfg.seed, 0)
        state = start(np.zeros(2), _stacked(vg))
        eps, mass, _ = _warmup(_stacked(vg), state, cfg, [rng])
        assert eps[0] > 0 and math.isfinite(eps[0])
        # inverse-variance masses: ratio should track the 1:100 variance ratio
        ratio = mass[0, 0] / mass[0, 1]
        assert 50 <= ratio <= 200

    def test_adapt_warmup_is_deterministic(self):
        post = Posterior(ModelSpec("pairwise", "binary"), builtin_dataset("boucher2016_pairwise"))
        cfg = SamplerConfig(chains=1, iter=700, warmup=600, seed=9)
        eps1, mass1 = adapt_warmup(post, cfg, chain_rng(cfg.seed, 0))
        eps2, mass2 = adapt_warmup(post, cfg, chain_rng(cfg.seed, 0))
        assert eps1 == eps2
        np.testing.assert_array_equal(mass1, mass2)

    def test_short_warmup_falls_back_with_warning(self):
        cfg = SamplerConfig(chains=1, iter=200, warmup=100, seed=4)
        with pytest.warns(UserWarning, match="too short"):
            draws = run_raw_chains(STD5, 5, cfg)
        assert np.all(np.isfinite(draws.chains[0].constrained_draws))

    def test_window_schedule_for_long_warmup(self):
        assert warmup_windows(2000) == [
            (75, 100),
            (100, 150),
            (150, 250),
            (250, 450),
            (450, 850),
            (850, 1950),
        ]

    def test_window_schedule_minimum(self):
        assert warmup_windows(150) == [(75, 100)]
        assert warmup_windows(149) is None

    def test_find_reasonable_step_size_is_finite(self):
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        state = start(np.zeros((2, 5)))
        eps = find_reasonable_step_size(stacked_harmonic, state, np.ones((2, 5)), rngs)
        assert eps.shape == (2,) and np.all((1e-6 < eps) & (eps < 100))


class TestRunChains:
    def test_same_seed_gives_identical_draws(self):
        ds = builtin_dataset("boucher2016_pairwise")
        spec = ModelSpec("pairwise", "binary")
        cfg = SamplerConfig(chains=2, iter=500, warmup=250, seed=123)
        a = run_chains(spec, ds, cfg)
        b = run_chains(spec, ds, cfg)
        for ca, cb in zip(a.chains, b.chains):
            np.testing.assert_array_equal(ca.draws, cb.draws)
            np.testing.assert_array_equal(ca.constrained_draws, cb.constrained_draws)
            assert ca.step_size == cb.step_size

    def test_single_chain_supports_diagnostics(self):
        ds = builtin_dataset("boucher2016_pairwise")
        cfg = SamplerConfig(chains=1, iter=600, warmup=300, seed=6)
        draws = run_chains(ModelSpec("pairwise", "binary"), ds, cfg)
        assert draws.n_chains == 1
        table = summarize(draws, ["theta"])
        assert math.isfinite(table.row("theta").rhat)

    def test_post_warmup_draws_all_finite(self):
        ds = builtin_dataset("boucher2016_pairwise")
        cfg = SamplerConfig(chains=2, iter=500, warmup=250, seed=31)
        draws = run_chains(ModelSpec("pairwise", "binary"), ds, cfg)
        for chain in draws.chains:
            assert np.all(np.isfinite(chain.draws))
            assert np.all(np.isfinite(chain.constrained_draws))
            assert chain.divergences >= 0

    def test_chain_draws_do_not_depend_on_the_chain_count(self):
        ds = builtin_dataset("boucher2016_pairwise")
        spec = ModelSpec("pairwise", "binary")
        two = run_chains(spec, ds, SamplerConfig(chains=2, iter=300, warmup=150, seed=77))
        four = run_chains(spec, ds, SamplerConfig(chains=4, iter=300, warmup=150, seed=77))
        for a, b in zip(two.chains, four.chains[:2]):
            np.testing.assert_array_equal(a.draws, b.draws)
            np.testing.assert_array_equal(a.accept_stats, b.accept_stats)
            assert a.step_size == b.step_size

    def test_all_divergent_warmup_raises(self):
        def exploding(z):
            with np.errstate(over="ignore"):
                return float(-0.5 * z @ z), np.full(z.shape, 1e300)

        cfg = SamplerConfig(chains=1, iter=60, warmup=50, seed=1)
        with pytest.warns(UserWarning, match="too short"):
            with pytest.raises(SamplingError, match="non-centered"):
                run_raw_chains(exploding, 3, cfg)

    def test_divergence_free_across_seeds(self):
        """Topiramate non-centered fit: 0 divergences in >= 95% of 20 seeds."""
        ds = builtin_dataset("boucher2016_pairwise")
        spec = ModelSpec("pairwise", "binary")
        clean = 0
        for seed in range(1, 21):
            cfg = SamplerConfig(seed=seed, target_accept=0.95)
            draws = run_chains(spec, ds, cfg)
            clean += draws.total_divergences == 0
        assert clean >= 19


class TestDrawsCsv:
    def _small_fit(self):
        ds = builtin_dataset("boucher2016_pairwise")
        cfg = SamplerConfig(chains=2, iter=320, warmup=160, seed=2)
        return run_chains(ModelSpec("pairwise", "binary"), ds, cfg)

    def test_round_trip(self):
        draws = self._small_fit()
        buf = io.StringIO()
        write_draws_csv(draws, buf)
        buf.seek(0)
        back = read_draws_csv(buf)
        assert back.parameter_names == draws.parameter_names
        assert back.n_chains == draws.n_chains
        for a, b in zip(draws.chains, back.chains):
            np.testing.assert_array_equal(a.constrained_draws, b.constrained_draws)

    def test_dump_bytes_are_reproducible(self):
        a, b = io.StringIO(), io.StringIO()
        write_draws_csv(self._small_fit(), a)
        write_draws_csv(self._small_fit(), b)
        assert a.getvalue() == b.getvalue()

    def test_header_shape(self):
        buf = io.StringIO()
        write_draws_csv(self._small_fit(), buf)
        header = buf.getvalue().splitlines()[0]
        assert header.startswith("chain,iteration,mu[1],")


class TestConfigValidation:
    def test_warmup_must_be_less_than_iter(self):
        with pytest.raises(ValueError):
            SamplerConfig(iter=100, warmup=100)

    def test_target_accept_range(self):
        with pytest.raises(ValueError):
            SamplerConfig(target_accept=1.0)

    def test_chain_count(self):
        with pytest.raises(ValueError):
            SamplerConfig(chains=0)
