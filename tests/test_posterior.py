"""Log-posterior values, transforms and analytic gradients."""

import math

import numpy as np
import pytest
from scipy import stats

from helpers import (
    all_spec_variants,
    linear_predictor,
    max_gradient_error,
    stable_seed,
    synth_mbma,
)

from metabayes.data import ArmRecord, Dataset, Endpoint, builtin_dataset
from metabayes.model import ModelFamily, ModelSpec, Prior, sigma_gamma_cholesky
from metabayes.posterior import Posterior, PosteriorError, build_layout, log_likelihood

PAIRWISE = builtin_dataset("boucher2016_pairwise")
FULL = builtin_dataset("boucher2016_full")
DURATION = tuple(
    (1.0,) if v == "long" else (0.0,) for v in PAIRWISE.covariates["duration"]
)


class TestLogLikelihood:
    def test_binary_kernel_hand_value(self):
        ds = Dataset(
            Endpoint.BINARY,
            (
                ArmRecord(1, 0, responders=1, sample_size=2),
                ArmRecord(1, 1, responders=0, sample_size=1),
            ),
        )
        # arm 2 at theta -> -inf*0... keep theta=0 on both: second arm adds -log 2
        value = log_likelihood(ds, np.array([0.0, 0.0]))
        assert value == pytest.approx((1 * 0 - 2 * math.log(2)) + (0 - math.log(2)), abs=1e-12)

    def test_continuous_standard_normal_at_mode(self):
        ds = Dataset(
            Endpoint.CONTINUOUS,
            (
                ArmRecord(1, 0, mean=0.0, std_err=1.0),
                ArmRecord(1, 1, mean=0.0, std_err=1.0),
            ),
        )
        value = log_likelihood(ds, np.zeros(2))
        assert value == pytest.approx(2 * (-0.5 * math.log(2 * math.pi)), abs=1e-12)

    def test_count_kernel_hand_value(self):
        ds = Dataset(
            Endpoint.COUNT,
            (
                ArmRecord(1, 0, events=0, exposure=1.0),
                ArmRecord(1, 1, events=0, exposure=1.0),
            ),
        )
        assert log_likelihood(ds, np.zeros(2)) == pytest.approx(-2.0, abs=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(PosteriorError):
            log_likelihood(PAIRWISE, np.zeros(3))

    @pytest.mark.parametrize("label,spec,ds", all_spec_variants(), ids=lambda c: c if isinstance(c, str) else "")
    def test_posterior_likelihood_matches_reference_predictor(self, label, spec, ds):
        """Arm coding, dose-response and random-effect mixing, rebuilt arm by arm."""
        post = Posterior(spec, ds)
        mbma = spec.family is ModelFamily.MBMA
        # MBMA latent effects: one per non-control arm, in (study, arm) order
        treated = sorted((a.study, a.arm) for a in ds.arms if a.arm != 0)
        rng = np.random.default_rng(stable_seed(label))
        for _ in range(20):
            z = rng.normal(0.0, 1.0, post.dim)
            x = post.layout.constrain(z)
            params = {b.name: x[post.layout.slice_of(b.name)] for b in post.layout.blocks}
            for role in spec.effect_roles():
                params[role] = float(params[role][0])
            gamma = np.zeros(len(treated))
            if spec.random_effects:
                tau = float(params["tau"][0])
                gamma = params["u" if spec.non_centered else "gamma"]
                if spec.non_centered and mbma:
                    sizes = np.cumsum([c - 1 for c in ds.arms_per_study])[:-1]
                    gamma = np.concatenate(
                        [sigma_gamma_cholesky(tau, u.size) @ u for u in np.split(gamma, sizes)]
                    )
                elif spec.non_centered:
                    gamma = tau * gamma
            theta = []
            for arm in ds.arms:
                if mbma:
                    g = gamma[treated.index((arm.study, arm.arm))] if arm.arm != 0 else 0.0
                else:
                    g = gamma[arm.study - 1]
                theta.append(linear_predictor(spec, arm.study, arm, {**params, "gamma": g}))
            expected = log_likelihood(ds, np.array(theta))
            assert post.log_likelihood_value(z) == pytest.approx(expected, rel=1e-10)


class TestLogPrior:
    def test_pairwise_prior_at_reference_point(self):
        """All blocks zero except tau=0.5; cross-checked against scipy."""
        spec = ModelSpec("pairwise", "binary")
        post = Posterior(spec, PAIRWISE)
        k = PAIRWISE.n_studies
        z = np.zeros(post.dim)
        z[post.layout.slice_of("tau")] = math.log(0.5)
        expected = (
            k * stats.norm.logpdf(0.0, 0.0, 10.0)
            + stats.norm.logpdf(0.0, 0.0, 2.5)
            + stats.halfnorm.logpdf(0.5, scale=0.5)
            + math.log(0.5)  # exp-transform Jacobian at tau=0.5
            + k * stats.norm.logpdf(0.0)
        )
        assert post.log_prior_value(z) == pytest.approx(expected, abs=1e-10)

    def test_halfnormal_tau_with_jacobian_frozen_value(self):
        # hand evaluation of log[2 phi(1)/0.5] + log 0.5
        spec = ModelSpec("pairwise", "binary")
        post = Posterior(spec, PAIRWISE)
        z0 = np.zeros(post.dim)
        z0[post.layout.slice_of("tau")] = math.log(0.5)
        z1 = np.zeros(post.dim)
        z1[post.layout.slice_of("tau")] = 0.0  # tau = 1
        diff = post.log_prior_value(z0) - post.log_prior_value(z1)
        expected0 = -0.7257913526447274
        expected1 = stats.halfnorm.logpdf(1.0, scale=0.5) + 0.0
        assert diff == pytest.approx(expected0 - expected1, abs=1e-12)

    def test_standard_normal_u_block(self):
        spec = ModelSpec("pairwise", "binary")
        post = Posterior(spec, PAIRWISE)
        rng = np.random.default_rng(0)
        z = rng.normal(size=post.dim)
        z2 = z.copy()
        z2[post.layout.slice_of("u")] = 0.0
        u = z[post.layout.slice_of("u")]
        diff = post.log_prior_value(z) - post.log_prior_value(z2)
        assert diff == pytest.approx(-0.5 * float(u @ u), abs=1e-10)


class TestGradients:
    @pytest.mark.parametrize("label,spec,ds", all_spec_variants(), ids=lambda c: c if isinstance(c, str) else "")
    def test_gradient_matches_finite_differences(self, label, spec, ds):
        post = Posterior(spec, ds)
        assert max_gradient_error(post, n_points=10, seed=stable_seed(label)) < 1e-5

    def test_common_effect_layout_has_no_latent_blocks(self):
        spec = ModelSpec("pairwise", "binary", random_effects=False)
        layout = build_layout(spec, PAIRWISE)
        assert not layout.has("u") and not layout.has("tau") and not layout.has("gamma")
        assert layout.dim == PAIRWISE.n_studies + 1

    def test_finite_on_pairwise_data(self):
        post = Posterior(ModelSpec("pairwise", "binary"), PAIRWISE)
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(0, 2, PAIRWISE.n_studies + 2 + PAIRWISE.n_studies)
            lp, grad = post.logp_and_grad(z)
            assert math.isfinite(lp)
            assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("label,spec,ds", all_spec_variants(), ids=lambda c: c if isinstance(c, str) else "")
    def test_finite_at_ordinary_points(self, label, spec, ds):
        """No NaN or overflow hides as a -inf rejection at ordinary points."""
        post = Posterior(spec, ds)
        z = np.random.default_rng(stable_seed(label)).normal(0.0, 1.5, (200, post.dim))
        lps, grads = post.logp_and_grad(z)
        assert np.isfinite(lps).all() and np.isfinite(grads).all()

    @pytest.mark.parametrize("label,spec,ds", all_spec_variants(), ids=lambda c: c if isinstance(c, str) else "")
    def test_stacked_rows_equal_single_points_bit_for_bit(self, label, spec, ds):
        post = Posterior(spec, ds)
        rng = np.random.default_rng(stable_seed(label))
        z = rng.normal(0.0, 1.5, (7, post.dim))
        z[3, post.dim - 1] = 900.0  # one overflowing row among finite ones
        lps, grads = post.logp_and_grad(z)
        assert lps.shape == (7,) and grads.shape == (7, post.dim)
        for b in range(7):
            lp, grad = post.logp_and_grad(z[b])
            assert lps[b] == lp or (math.isnan(lp) and math.isnan(lps[b]))
            np.testing.assert_array_equal(grads[b], grad)
            assert np.array_equal(np.signbit(grads[b]), np.signbit(grad))

    @pytest.mark.parametrize("dose_response", ["emax", "sigmoidal"])
    def test_underflowed_ed50_evaluates_to_minus_inf(self, dose_response):
        post = Posterior(ModelSpec("mbma", "binary", dose_response=dose_response), FULL)
        z = np.zeros((2, post.dim))
        z[0, post.layout.slice_of("ED50")] = -746.0  # exp underflows to 0
        lps, grads = post.logp_and_grad(z)
        assert lps[0] == -math.inf and not grads[0].any()
        assert math.isfinite(lps[1])
        assert post.logp_and_grad(z[0])[0] == -math.inf

    def test_non_finite_input_names_block(self):
        spec = ModelSpec("pairwise", "binary")
        post = Posterior(spec, PAIRWISE)
        z = np.zeros(post.dim)
        z[post.layout.slice_of("theta")] = math.nan
        with pytest.raises(PosteriorError, match="theta"):
            post.logp_and_grad(z)


class TestParametrizationEquivalence:
    def test_centered_and_non_centered_define_the_same_posterior(self):
        """Matched points differ exactly by the change-of-variables term."""
        for spec_ncp, spec_c, ds in [
            (
                ModelSpec("pairwise", "binary"),
                ModelSpec("pairwise", "binary", non_centered=False),
                PAIRWISE,
            ),
            (
                ModelSpec("mbma", "binary", dose_response="emax"),
                ModelSpec("mbma", "binary", dose_response="emax", non_centered=False),
                FULL,
            ),
        ]:
            post_n = Posterior(spec_ncp, ds)
            post_c = Posterior(spec_c, ds)
            # pairwise models keep one unmixed effect per study
            mix = post_n._L if post_n._L is not None else np.eye(ds.n_studies)
            log_det_mix = float(np.sum(np.log(np.diag(mix))))
            rng = np.random.default_rng(42)
            for _ in range(10):
                z = rng.normal(0, 1, post_n.dim)
                tau = float(np.exp(z[post_n.layout.slice_of("tau")][0]))
                u = z[post_n.layout.slice_of("u")]
                gamma = tau * (mix @ u)
                z_c = z.copy()
                z_c[post_c.layout.slice_of("gamma")] = gamma
                lp_n = post_n.logp_and_grad(z)[0]
                lp_c = post_c.logp_and_grad(z_c)[0]
                jac = u.size * math.log(tau) + log_det_mix
                assert lp_n == pytest.approx(lp_c + jac, abs=1e-10)

    def test_symmetric_and_contrast_codings_share_the_likelihood(self):
        """Shifting baselines by half the contrast maps one coding to the other."""
        spec_sym = ModelSpec("pairwise", "binary")
        spec_bc = ModelSpec("pairwise", "binary", parametrization="baseline_contrast")
        post_s = Posterior(spec_sym, PAIRWISE)
        post_b = Posterior(spec_bc, PAIRWISE)
        rng = np.random.default_rng(3)
        k = PAIRWISE.n_studies
        for _ in range(10):
            z = rng.normal(0, 1, post_s.dim)
            d = z[post_s.layout.slice_of("theta")][0]
            tau = float(np.exp(z[post_s.layout.slice_of("tau")][0]))
            gamma = tau * z[post_s.layout.slice_of("u")]
            z_b = z.copy()
            z_b[post_b.layout.slice_of("mu")] = (
                z[post_s.layout.slice_of("mu")] - 0.5 * (d + gamma)
            )
            assert post_s.log_likelihood_value(z) == pytest.approx(
                post_b.log_likelihood_value(z_b), abs=1e-10
            )

    def test_arm_order_permutation_invariance(self):
        spec = ModelSpec("mbma", "binary", dose_response="emax")
        rng = np.random.default_rng(8)
        shuffled = list(FULL.arms)
        rng.shuffle(shuffled)
        ds2 = Dataset(Endpoint.BINARY, tuple(shuffled))
        post1 = Posterior(spec, FULL)
        post2 = Posterior(spec, ds2)
        for _ in range(5):
            z = rng.normal(0, 1, post1.dim)
            assert post1.logp_and_grad(z)[0] == pytest.approx(
                post2.logp_and_grad(z)[0], abs=1e-10
            )

    def test_zero_heterogeneity_recovers_common_effect_likelihood(self):
        spec_re = ModelSpec("pairwise", "binary")
        spec_ce = ModelSpec("pairwise", "binary", random_effects=False)
        post_re = Posterior(spec_re, PAIRWISE)
        post_ce = Posterior(spec_ce, PAIRWISE)
        rng = np.random.default_rng(12)
        for _ in range(10):
            z_ce = rng.normal(0, 1, post_ce.dim)
            z_re = np.zeros(post_re.dim)
            z_re[post_re.layout.slice_of("mu")] = z_ce[post_ce.layout.slice_of("mu")]
            z_re[post_re.layout.slice_of("theta")] = z_ce[post_ce.layout.slice_of("theta")]
            z_re[post_re.layout.slice_of("u")] = 0.0  # gamma = u * tau = 0
            assert post_re.log_likelihood_value(z_re) == pytest.approx(
                post_ce.log_likelihood_value(z_ce), abs=1e-12
            )


class TestTransforms:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec("pairwise", "binary"),
            ModelSpec("pairwise", "binary", priors={"tau": Prior.uniform(0.0, 5.0)}),
            ModelSpec("mbma", "binary", dose_response="sigmoidal"),
        ],
    )
    def test_constrain_unconstrain_round_trip(self, spec):
        ds = FULL if spec.family.value == "mbma" else PAIRWISE
        post = Posterior(spec, ds)
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.normal(0, 1.5, post.dim)
            x = post.layout.constrain(z)
            z_back = post.layout.unconstrain(x)
            np.testing.assert_allclose(z_back, z, atol=1e-12, rtol=0)

    def test_parameter_names(self):
        post = Posterior(ModelSpec("pairwise", "binary"), PAIRWISE)
        names = post.layout.parameter_names
        assert names[:2] == ("mu[1]", "mu[2]")
        assert "theta" in names and "tau" in names and "u[6]" in names

    def test_overflowing_point_reports_rejection_not_crash(self):
        post = Posterior(ModelSpec("mbma", "count", dose_response="sigmoidal"), synth_mbma(Endpoint.COUNT))
        z = np.full(post.dim, 400.0)  # far outside support of everything
        lp, grad = post.logp_and_grad(z)
        assert lp == -math.inf and not grad.any()
