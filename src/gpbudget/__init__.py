"""Gaussian-process regression with replicated noisy observations,
Mercer-spectrum learning curves, replication allocation, and
simulation-budget planning."""

from .kernels import (
    KernelSpec,
    cross_matrix,
    gram_matrix,
    kernel_diag,
)
from .gp_core import (
    Design,
    ImseOperator,
    ObservationSet,
    Predictor,
    Quadrature,
    SingularCovarianceError,
    UniformBox,
    fit_blup,
    integrated_mse,
    load_observations_csv,
    predict_mean,
    predict_mse,
    save_observations_csv,
)
from .spectrum import (
    Spectrum,
    nystrom_spectrum,
    save_spectrum_csv,
)
from .learning_curve import (
    RateLaw,
    asymptotic_imse,
    asymptotic_imse_bounds,
    asymptotic_mse_at,
    b_tau,
    empirical_learning_curve,
    fit_loglog_slope,
    rate_law,
)
from .allocation import (
    AllocationPlan,
    InfeasibleBudgetError,
    heteroscedastic_imse,
    local_imse_weight,
    optimal_real_allocation,
    plan_allocation,
    round_allocation,
    save_plan_csv,
)
from .planner import (
    BudgetForecast,
    HyperparameterFit,
    LikelihoodFitError,
    concentrated_log_likelihood,
    estimate_noise,
    fit_hyperparameters,
    imse_decay,
    required_budget,
)
from .sim_harness import (
    SyntheticSimulator,
    latin_hypercube_design,
    run_case_study,
    run_figure1,
    run_figure2,
    sample_observations,
)

__version__ = "0.1.0"

__all__ = [
    "KernelSpec", "cross_matrix", "gram_matrix", "kernel_diag",
    "Design", "ImseOperator", "ObservationSet", "Predictor", "Quadrature",
    "SingularCovarianceError", "UniformBox", "fit_blup",
    "integrated_mse", "load_observations_csv",
    "predict_mean", "predict_mse", "save_observations_csv",
    "Spectrum", "nystrom_spectrum", "save_spectrum_csv",
    "RateLaw", "asymptotic_imse", "asymptotic_imse_bounds", "asymptotic_mse_at",
    "b_tau", "empirical_learning_curve", "fit_loglog_slope", "rate_law",
    "AllocationPlan", "InfeasibleBudgetError", "heteroscedastic_imse",
    "local_imse_weight", "optimal_real_allocation", "plan_allocation",
    "round_allocation", "save_plan_csv",
    "BudgetForecast", "HyperparameterFit", "LikelihoodFitError",
    "concentrated_log_likelihood",
    "estimate_noise", "fit_hyperparameters", "imse_decay", "required_budget",
    "SyntheticSimulator", "latin_hypercube_design", "run_case_study",
    "run_figure1", "run_figure2", "sample_observations",
]
