"""Bayesian meta-analysis as generalized linear mixed models.

Pairwise random-effects meta-analysis, meta-regression and model-based
(dose-response) meta-analysis for binary, continuous and count
endpoints, fitted with a built-in Hamiltonian Monte Carlo sampler.
"""

from .data import (
    ArmRecord,
    BUILTIN_DATASETS,
    DataError,
    Dataset,
    Endpoint,
    WideTable,
    builtin_dataset,
    builtin_wide_table,
    convert_wide_to_long,
    parse_csv,
    read_long_csv,
    write_long_csv,
)
from .diagnostics import (
    DoseCurveBands,
    ParameterSummary,
    SummaryTable,
    dose_curve_bands,
    ess,
    predict_new_study,
    split_rhat,
    summarize,
    summarize_chains,
)
from .model import (
    DomainError,
    DoseResponse,
    Link,
    ModelError,
    ModelFamily,
    ModelSpec,
    Parametrization,
    Prior,
    default_priors,
    sigma_gamma_cholesky,
)
from .posterior import (
    ParameterLayout,
    Posterior,
    PosteriorError,
    build_layout,
    log_likelihood,
)
from .sampler import (
    ChainOutput,
    PosteriorDraws,
    SamplerConfig,
    SamplingError,
    hmc_transition,
    read_draws_csv,
    run_chains,
    write_draws_csv,
)
from .viz import (
    DosePlotInput,
    ForestPlotInput,
    PlotError,
    dose_plot_svg,
    forest_plot_svg,
    per_study_estimates,
)

__version__ = "0.1.0"
