"""Model specification: likelihood/link pairs, dose-response families, priors.

Pairwise meta-analysis, meta-regression and model-based (dose-response)
meta-analysis are all expressed as generalized linear mixed models.  A
study contributes a baseline parameter per trial plus a treatment
contrast; heterogeneity enters through normally distributed random
effects with standard deviation ``tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .data import Dataset, Endpoint


class ModelError(ValueError):
    """Inconsistent or incomplete model specification."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ModelFamily(str, Enum):
    PAIRWISE = "pairwise"
    META_REGRESSION = "meta_regression"
    MBMA = "mbma"


class Parametrization(str, Enum):
    """Treatment coding for pairwise/meta-regression models.

    ``symmetric`` splits the contrast evenly around the study baseline
    (control ``mu - delta/2``, treatment ``mu + delta/2``);
    ``baseline_contrast`` puts the baseline on the control arm (control
    ``mu``, treatment ``mu + delta``).  Dose-response models always use
    the baseline-contrast structure.
    """

    SYMMETRIC = "symmetric"
    BASELINE_CONTRAST = "baseline_contrast"


class Link(str, Enum):
    LOGIT = "logit"
    IDENTITY = "identity"
    LOG = "log"


LINK_FOR_ENDPOINT = {
    Endpoint.BINARY: Link.LOGIT,
    Endpoint.CONTINUOUS: Link.IDENTITY,
    Endpoint.COUNT: Link.LOG,
}

#: Likelihood names as used in configuration files.
LIKELIHOOD_FOR_ENDPOINT = {
    Endpoint.BINARY: "binomial",
    Endpoint.CONTINUOUS: "normal",
    Endpoint.COUNT: "poisson",
}
ENDPOINT_FOR_LIKELIHOOD = {v: k for k, v in LIKELIHOOD_FOR_ENDPOINT.items()}


class DoseResponse(str, Enum):
    LINEAR = "linear"
    LOG_LINEAR = "log_linear"
    EMAX = "emax"
    SIGMOIDAL = "sigmoidal"


#: Parameters of each dose-response family, in reporting order.
DR_ROLES: dict[DoseResponse, tuple[str, ...]] = {
    DoseResponse.LINEAR: ("alpha",),
    DoseResponse.LOG_LINEAR: ("alpha",),
    DoseResponse.EMAX: ("Emax", "ED50"),
    DoseResponse.SIGMOIDAL: ("Emax", "ED50", "n"),
}


# ---------------------------------------------------------------------------
# Dose-response families
# ---------------------------------------------------------------------------


def _libm_log(v):
    """``math.log`` of a float, or of each entry of an array.

    numpy's vectorised log rounds a few percent of values differently
    from the C library's; scalar code has always used the latter, and
    sampled draws depend on every bit.
    """
    if np.ndim(v) == 0:
        return math.log(v)
    return np.array([math.log(e) for e in v.ravel()]).reshape(np.shape(v))


def _dose_response_kernel(
    family: DoseResponse, params: Mapping[str, float | np.ndarray], dose: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Effect f(dose) and its partial derivatives w.r.t. each parameter.

    ``params`` holds the family's roles (:data:`DR_ROLES`); the caller
    ensures ED50 and n are positive and doses non-negative.  All families
    satisfy f(0) = 0 exactly, anchoring the placebo arm.  The sigmoidal
    family uses the saturating form Emax * dose^n / (ED50^n + dose^n),
    evaluated through the logistic of n*(log dose - log ED50) for
    numerical stability.

    A parameter may also be a (B, 1) column, one value per row of a
    stack; the results then have shape (B, len(dose)).
    """
    if family is DoseResponse.LINEAR:
        a = params["alpha"]
        return a * dose, {"alpha": dose.copy()}
    if family is DoseResponse.LOG_LINEAR:
        a = params["alpha"]
        ld = np.log1p(dose)
        return a * ld, {"alpha": ld}
    emax, ed50 = params["Emax"], params["ED50"]
    if family is DoseResponse.EMAX:
        den = ed50 + dose
        frac = dose / den
        # squared in place: one (B, len(dose)) array fewer at the peak
        return emax * frac, {"Emax": frac, "ED50": -emax * dose / np.square(den, out=den)}
    # sigmoidal; each step writes into its operand's buffer (the same bits
    # as the plain expressions), so a (draws, grid) call holds four arrays
    n = params["n"]
    pos = dose > 0
    log_dose = np.zeros(dose.shape)
    log_dose[pos] = np.log(dose[pos])
    t = n * (log_dose - _libm_log(ed50))
    s = np.clip(t, -700, 700)
    np.exp(np.negative(s, out=s), out=s)
    np.divide(1.0, np.add(s, 1.0, out=s), out=s)  # s = 1 / (1 + exp(-t))
    ds = np.subtract(1.0, s)
    ds *= s  # d s / d t = s (1 - s)
    t /= n
    t *= ds  # d s / d n = s (1 - s) t / n
    ds *= n
    ds /= ed50
    np.negative(ds, out=ds)  # d s / d ED50 = -s (1 - s) n / ED50
    for v in (s, t, ds):
        np.copyto(v, 0.0, where=~pos)  # f(0) = 0
    return emax * s, {
        "Emax": s,
        "ED50": np.multiply(emax, ds, out=ds),
        "n": np.multiply(emax, t, out=t),
    }


# ---------------------------------------------------------------------------
# Random-effects covariance
# ---------------------------------------------------------------------------


def sigma_gamma_cholesky(tau: float, n_treatment_arms: int) -> np.ndarray:
    """Lower Cholesky factor of the compound-symmetric random-effects covariance.

    The covariance over a trial's non-control arms has tau^2 on the
    diagonal and tau^2/2 off it; the factor is tau times the Cholesky of
    the fixed pattern matrix 0.5*(I + J), so tau = 0 yields the zero
    matrix exactly.
    """
    if tau < 0:
        raise DomainError(f"tau must be non-negative, got {tau}")
    if n_treatment_arms < 1:
        raise DomainError("need at least one treatment arm")
    m = n_treatment_arms
    pattern = 0.5 * (np.eye(m) + np.ones((m, m)))
    return tau * np.linalg.cholesky(pattern)


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

_PRIOR_FAMILIES = (
    "normal",
    "half_normal",
    "cauchy",
    "uniform",
    "log_normal",
    "functional_ed50",
)


def _fmt(x: float) -> str:
    return format(float(x), "g")


@dataclass(frozen=True)
class Prior:
    """A prior distribution with family-specific parameters.

    ``normal(mean, sd)``; ``half_normal(scale)``; ``cauchy(location,
    scale)`` truncated to the positive axis when used for tau;
    ``uniform(lower, upper)``; ``log_normal(log_mean, log_sd)``;
    ``functional_ed50`` (no parameters) resolves to a log-normal(-2.5,
    1.8) on ED50 divided by the maximum dose.
    """

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.family not in _PRIOR_FAMILIES:
            raise ModelError(f"unknown prior family '{self.family}'")
        n_expected = {
            "normal": 2,
            "half_normal": 1,
            "cauchy": 2,
            "uniform": 2,
            "log_normal": 2,
            "functional_ed50": 0,
        }[self.family]
        if len(self.params) != n_expected:
            raise ModelError(
                f"prior '{self.family}' takes {n_expected} parameters, got {self.params}"
            )
        if self.family in ("normal", "log_normal", "cauchy") and self.params[1] <= 0:
            raise ModelError(f"prior '{self.family}' scale must be > 0")
        if self.family == "half_normal" and self.params[0] <= 0:
            raise ModelError("half_normal scale must be > 0")
        if self.family == "uniform" and not self.params[0] < self.params[1]:
            raise ModelError("uniform prior needs lower < upper")

    @staticmethod
    def normal(mean: float, sd: float) -> "Prior":
        return Prior("normal", (mean, sd))

    @staticmethod
    def half_normal(scale: float) -> "Prior":
        return Prior("half_normal", (scale,))

    @staticmethod
    def cauchy(location: float, scale: float) -> "Prior":
        return Prior("cauchy", (location, scale))

    @staticmethod
    def uniform(lower: float, upper: float) -> "Prior":
        return Prior("uniform", (lower, upper))

    @staticmethod
    def log_normal(log_mean: float, log_sd: float) -> "Prior":
        return Prior("log_normal", (log_mean, log_sd))

    @staticmethod
    def functional_ed50() -> "Prior":
        return Prior("functional_ed50", ())

    def label(self) -> str:
        """Short text form used in printed summaries."""
        p = self.params
        return {
            "normal": lambda: f"Normal({_fmt(p[0])},{_fmt(p[1])})",
            "half_normal": lambda: f"half-normal({_fmt(p[0])})",
            "cauchy": lambda: f"half-Cauchy({_fmt(p[0])},{_fmt(p[1])})",
            "uniform": lambda: f"uniform({_fmt(p[0])},{_fmt(p[1])})",
            "log_normal": lambda: f"log-normal({_fmt(p[0])},{_fmt(p[1])})",
            "functional_ed50": lambda: "functional(-2.5,1.8)",
        }[self.family]()


#: Prior families accepted for each parameter block.
ALLOWED_PRIORS: dict[str, tuple[str, ...]] = {
    "mu": ("normal",),
    "theta": ("normal",),
    "beta": ("normal",),
    "tau": ("half_normal", "cauchy", "uniform"),
    "alpha": ("normal",),
    "Emax": ("normal",),
    "ED50": ("functional_ed50", "log_normal"),
    "n": ("normal",),
}


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Complete description of one analysis model.

    ``covariates`` is a study-by-coefficient matrix for meta-regression.
    ``parametrization`` applies to pairwise/meta-regression models;
    dose-response models always use the baseline-contrast structure with
    per-arm random effects.  ``max_dose`` rescales the functional ED50
    prior (defaults to the largest dose in the dataset).
    """

    family: ModelFamily
    endpoint: Endpoint
    random_effects: bool = True
    parametrization: Parametrization = Parametrization.SYMMETRIC
    non_centered: bool = True
    covariates: tuple[tuple[float, ...], ...] | None = None
    dose_response: DoseResponse | None = None
    priors: Mapping[str, Prior] = field(default_factory=dict)
    max_dose: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", ModelFamily(self.family))
        object.__setattr__(self, "endpoint", Endpoint(self.endpoint))
        object.__setattr__(self, "parametrization", Parametrization(self.parametrization))
        if self.dose_response is not None:
            object.__setattr__(self, "dose_response", DoseResponse(self.dose_response))
        if self.covariates is not None:
            rows = tuple(tuple(float(v) for v in row) for row in self.covariates)
            if rows and len({len(r) for r in rows}) != 1:
                raise ModelError("covariate rows must all have the same length")
            object.__setattr__(self, "covariates", rows)
        object.__setattr__(self, "priors", dict(self.priors))
        if self.family is ModelFamily.META_REGRESSION and self.covariates is None:
            raise ModelError("meta_regression requires a covariate matrix")
        if self.family is ModelFamily.MBMA and self.dose_response is None:
            raise ModelError("mbma requires a dose_response family")
        if self.family is not ModelFamily.MBMA and self.dose_response is not None:
            raise ModelError("dose_response only applies to mbma models")
        if self.max_dose is not None and self.max_dose <= 0:
            raise ModelError("max_dose must be > 0")
        for name, prior in self.priors.items():
            if name not in ALLOWED_PRIORS:
                raise ModelError(f"unknown prior block '{name}'")
            if prior.family not in ALLOWED_PRIORS[name]:
                raise ModelError(
                    f"prior family '{prior.family}' is not allowed for '{name}' "
                    f"(allowed: {ALLOWED_PRIORS[name]})"
                )

    @property
    def link(self) -> Link:
        return LINK_FOR_ENDPOINT[self.endpoint]

    @property
    def n_covariates(self) -> int:
        if self.covariates is None or not self.covariates:
            return 0
        return len(self.covariates[0])

    def effect_roles(self) -> tuple[str, ...]:
        """Names of the treatment-effect parameters of this model."""
        if self.family is ModelFamily.MBMA:
            assert self.dose_response is not None
            return DR_ROLES[self.dose_response]
        return ("theta",)

    def validate_against(self, dataset: Dataset) -> None:
        """Cross-check the specification against a dataset."""
        if dataset.endpoint is not self.endpoint:
            raise ModelError(
                f"model endpoint '{self.endpoint.value}' does not match dataset "
                f"endpoint '{dataset.endpoint.value}'"
            )
        if dataset.n_studies == 0:
            raise ModelError("dataset has no studies")
        if self.family in (ModelFamily.PAIRWISE, ModelFamily.META_REGRESSION):
            bad = [s + 1 for s, c in enumerate(dataset.arms_per_study) if c != 2]
            if bad:
                raise ModelError(
                    f"pairwise models need exactly 2 arms per study; studies {bad} differ"
                )
        if self.family is ModelFamily.META_REGRESSION:
            assert self.covariates is not None
            if len(self.covariates) != dataset.n_studies:
                raise ModelError(
                    f"covariate matrix has {len(self.covariates)} rows for "
                    f"{dataset.n_studies} studies"
                )
        if self.family is ModelFamily.MBMA and not dataset.has_doses:
            raise ModelError("mbma requires a dose on every arm")


def default_priors(spec: ModelSpec) -> dict[str, Prior]:
    """Complete prior map for a specification, filling unset blocks.

    Defaults: weakly informative Normal(0, 2.5) on the treatment effect,
    vague Normal(0, 10) baselines, Normal(0, 100) regression
    coefficients, half-normal(0.5) heterogeneity, Normal(0, 10) on the
    dose-response slope or Emax, the functional prior on ED50, and a
    positive-truncated Normal(1, 2) on the Hill parameter.
    """
    filled: dict[str, Prior] = {"mu": Prior.normal(0.0, 10.0)}
    if spec.family is ModelFamily.MBMA:
        assert spec.dose_response is not None
        for role in DR_ROLES[spec.dose_response]:
            filled[role] = {
                "alpha": Prior.normal(0.0, 10.0),
                "Emax": Prior.normal(0.0, 10.0),
                "ED50": Prior.functional_ed50(),
                "n": Prior.normal(1.0, 2.0),
            }[role]
    else:
        filled["theta"] = Prior.normal(0.0, 2.5)
    if spec.family is ModelFamily.META_REGRESSION:
        filled["beta"] = Prior.normal(0.0, 100.0)
    if spec.random_effects:
        filled["tau"] = Prior.half_normal(0.5)
    for name, prior in spec.priors.items():
        if name not in filled:
            raise ModelError(f"prior block '{name}' does not apply to this model")
        filled[name] = prior
    return filled

