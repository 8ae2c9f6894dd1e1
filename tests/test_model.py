"""Dose-response families, priors, model specifications and the reference predictor."""

import numpy as np
import pytest

from helpers import linear_predictor

from metabayes.data import ArmRecord, builtin_dataset
from metabayes.model import (
    DomainError,
    DoseResponse,
    ModelError,
    ModelSpec,
    Parametrization,
    Prior,
    _dose_response_kernel,
    default_priors,
    sigma_gamma_cholesky,
)


def dose_response_at(family, params, dose):
    """The kernel's f(dose) at one dose."""
    value, _ = _dose_response_kernel(DoseResponse(family), params, np.array([float(dose)]))
    return float(value[0])


class TestDoseResponse:
    def test_emax_half_maximum_at_ed50(self):
        assert dose_response_at("emax", {"Emax": 2, "ED50": 10}, 10) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "family,params",
        [
            ("linear", {"alpha": 1.3}),
            ("log_linear", {"alpha": -0.7}),
            ("emax", {"Emax": 2.0, "ED50": 7.0}),
            ("sigmoidal", {"Emax": 2.0, "ED50": 7.0, "n": 2.4}),
        ],
    )
    def test_placebo_anchoring_is_exact(self, family, params):
        assert dose_response_at(family, params, 0.0) == 0.0

    def test_fitted_emax_arithmetic(self):
        # oracle: Emax*dose/(ED50+dose) at the fitted medians
        expected = 2.91 * 200 / (13.07 + 200)
        got = dose_response_at("emax", {"Emax": 2.91, "ED50": 13.07}, 200)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(2.7315, abs=1e-3)

    def test_emax_monotone_and_saturating(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            emax = rng.uniform(0.1, 5)
            ed50 = rng.uniform(0.5, 50)
            doses = np.sort(rng.uniform(0, 500, 40))
            vals = [dose_response_at("emax", {"Emax": emax, "ED50": ed50}, d) for d in doses]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            big = dose_response_at("emax", {"Emax": emax, "ED50": ed50}, 1e9)
            assert abs(big - emax) < 1e-6 * emax

    def test_sigmoidal_with_unit_hill_equals_emax(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            emax = rng.uniform(-3, 3)
            ed50 = rng.uniform(0.1, 80)
            dose = rng.uniform(0, 400)
            a = dose_response_at("emax", {"Emax": emax, "ED50": ed50}, dose)
            b = dose_response_at("sigmoidal", {"Emax": emax, "ED50": ed50, "n": 1.0}, dose)
            assert abs(a - b) < 1e-12

    def test_sigmoidal_columns_match_scalar_calls_and_vanish_at_placebo(self):
        rng = np.random.default_rng(5)
        params = {
            "Emax": rng.uniform(-3, 3, (6, 1)),
            "ED50": rng.uniform(0.1, 80, (6, 1)),
            "n": rng.uniform(0.2, 5, (6, 1)),
        }
        dose = np.array([3.0, 0.0, 40.0, 0.0, 250.0])
        f, partials = _dose_response_kernel(DoseResponse.SIGMOIDAL, params, dose)
        for b in range(6):
            row = {k: float(v[b, 0]) for k, v in params.items()}
            f_b, partials_b = _dose_response_kernel(DoseResponse.SIGMOIDAL, row, dose)
            assert f[b].tobytes() == f_b.tobytes()
            assert all(partials[k][b].tobytes() == partials_b[k].tobytes() for k in params)
        for out in (f, *partials.values()):
            assert out.shape == (6, 5)
            assert np.all(out[:, dose == 0] == 0)


class TestSigmaGammaCholesky:
    def test_two_arm_factor_matches_hand_cholesky(self):
        got = sigma_gamma_cholesky(1.0, 2)
        expected = np.array([[1.0, 0.0], [0.5, 0.8660254]])
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_zero_heterogeneity_gives_zero_matrix(self):
        np.testing.assert_array_equal(sigma_gamma_cholesky(0.0, 4), np.zeros((4, 4)))

    def test_scalar_case(self):
        np.testing.assert_allclose(sigma_gamma_cholesky(2.0, 1), [[2.0]])

    def test_factor_reproduces_covariance(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            tau = rng.uniform(1e-6, 5.0)
            m = int(rng.integers(1, 7))
            ell = sigma_gamma_cholesky(tau, m)
            sigma = tau**2 * (0.5 * np.eye(m) + 0.5 * np.ones((m, m)))
            assert np.max(np.abs(ell @ ell.T - sigma)) < 1e-10

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            sigma_gamma_cholesky(-0.1, 2)


class TestPriors:
    def test_pairwise_default_effect_prior(self):
        spec = ModelSpec("pairwise", "binary")
        priors = default_priors(spec)
        assert priors["theta"] == Prior.normal(0, 2.5)
        assert priors["mu"] == Prior.normal(0, 10)
        assert priors["tau"] == Prior.half_normal(0.5)

    def test_mbma_default_ed50_prior_is_functional(self):
        spec = ModelSpec("mbma", "binary", dose_response="emax")
        priors = default_priors(spec)
        assert priors["ED50"].family == "functional_ed50"
        assert priors["ED50"].label() == "functional(-2.5,1.8)"
        assert priors["Emax"] == Prior.normal(0, 10)

    def test_sigmoidal_gets_hill_prior(self):
        spec = ModelSpec("mbma", "binary", dose_response="sigmoidal")
        assert default_priors(spec)["n"] == Prior.normal(1, 2)

    def test_user_override_preserved(self):
        spec = ModelSpec("pairwise", "binary", priors={"tau": Prior.uniform(0, 5)})
        assert default_priors(spec)["tau"] == Prior.uniform(0, 5)

    def test_labels(self):
        assert Prior.normal(0, 2.5).label() == "Normal(0,2.5)"
        assert Prior.half_normal(0.5).label() == "half-normal(0.5)"
        assert Prior.uniform(0, 5).label() == "uniform(0,5)"
        assert Prior.cauchy(0, 1).label() == "half-Cauchy(0,1)"
        assert Prior.log_normal(-2.5, 1.8).label() == "log-normal(-2.5,1.8)"

    def test_prior_parameter_validation(self):
        with pytest.raises(ModelError):
            Prior.normal(0, -1)
        with pytest.raises(ModelError):
            Prior.uniform(3, 3)
        with pytest.raises(ModelError):
            Prior("nonsense", ())

    def test_disallowed_prior_family_for_block(self):
        with pytest.raises(ModelError, match="not allowed"):
            ModelSpec("pairwise", "binary", priors={"theta": Prior.half_normal(1.0)})

    def test_inapplicable_block_rejected(self):
        spec = ModelSpec("pairwise", "binary", priors={"n": Prior.normal(1, 2)})
        with pytest.raises(ModelError, match="does not apply"):
            default_priors(spec)


class TestModelSpecValidation:
    def test_meta_regression_needs_covariates(self):
        with pytest.raises(ModelError, match="covariate"):
            ModelSpec("meta_regression", "binary")

    def test_mbma_needs_dose_response(self):
        with pytest.raises(ModelError, match="dose_response"):
            ModelSpec("mbma", "binary")

    def test_pairwise_requires_two_arms(self):
        spec = ModelSpec("pairwise", "binary")
        with pytest.raises(ModelError, match="exactly 2 arms"):
            spec.validate_against(builtin_dataset("boucher2016_full"))

    def test_covariate_row_count_checked(self):
        spec = ModelSpec("meta_regression", "binary", covariates=((1.0,), (0.0,)))
        with pytest.raises(ModelError, match="rows"):
            spec.validate_against(builtin_dataset("boucher2016_pairwise"))

    def test_mbma_needs_doses(self):
        spec = ModelSpec("mbma", "binary", dose_response="emax")
        with pytest.raises(ModelError, match="dose"):
            spec.validate_against(builtin_dataset("boucher2016_pairwise"))


class TestLinearPredictor:
    def test_symmetric_at_zero_baseline(self):
        spec = ModelSpec("pairwise", "binary")
        params = {"mu": [0.0], "theta": 1.0, "gamma": 0.0}
        control = ArmRecord(1, 0, responders=0, sample_size=1)
        treatment = ArmRecord(1, 1, responders=0, sample_size=1)
        assert linear_predictor(spec, 1, control, params) == -0.5
        assert linear_predictor(spec, 1, treatment, params) == 0.5

    def test_baseline_contrast_by_substitution(self):
        spec = ModelSpec("pairwise", "binary", parametrization="baseline_contrast")
        params = {"mu": [0.3], "theta": 1.2, "gamma": 0.1}
        control = ArmRecord(1, 0, responders=0, sample_size=1)
        treatment = ArmRecord(1, 1, responders=0, sample_size=1)
        assert linear_predictor(spec, 1, control, params) == pytest.approx(0.3)
        assert linear_predictor(spec, 1, treatment, params) == pytest.approx(1.6)

    def test_mbma_emax_half_maximum(self):
        spec = ModelSpec("mbma", "binary", dose_response="emax")
        params = {"mu": [-2.0], "Emax": 2.0, "ED50": 10.0, "gamma": 0.0}
        arm = ArmRecord(1, 1, dose=10.0, responders=0, sample_size=1)
        assert linear_predictor(spec, 1, arm, params) == pytest.approx(-1.0)

    def test_contrast_is_parametrization_invariant(self):
        """treatment - control == theta + x'beta + gamma under both codings."""
        rng = np.random.default_rng(5)
        control = ArmRecord(1, 0, responders=0, sample_size=1)
        treatment = ArmRecord(1, 1, responders=0, sample_size=1)
        for _ in range(25):
            theta, gamma = rng.normal(size=2)
            beta = rng.normal(size=2)
            x = rng.normal(size=2)
            mu = rng.normal(size=1)
            params = {"mu": mu, "theta": theta, "beta": beta, "gamma": gamma}
            expected = theta + x @ beta + gamma
            for param in Parametrization:
                spec = ModelSpec(
                    "meta_regression",
                    "binary",
                    parametrization=param,
                    covariates=(tuple(x),),
                )
                contrast = linear_predictor(spec, 1, treatment, params) - linear_predictor(
                    spec, 1, control, params
                )
                assert contrast == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        spec = ModelSpec("meta_regression", "binary", covariates=((1.0, 2.0),))
        params = {"mu": [0.0], "theta": 0.0, "beta": [1.0], "gamma": 0.0}
        with pytest.raises(ModelError, match="beta"):
            linear_predictor(spec, 1, ArmRecord(1, 1, responders=0, sample_size=1), params)
