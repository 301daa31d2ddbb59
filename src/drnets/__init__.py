"""Doubly robust estimation of single- and multi-stage treatment effects."""

import types

from drnets.errors import (
    ConfigurationError,
    ConvergenceError,
    DivergenceError,
    DrnetsError,
    EmptySubgroupError,
    EstimationError,
    FoldError,
    InputError,
    SeparationError,
    SplitError,
    StratumError,
)
from drnets.nnet import MLPConfig, MLPModel, mlp_fit, mlp_init, mlp_predict
from drnets.linmod import LinearModel, lasso_fit, logistic_lasso_fit, select_lambda
from drnets.scores import (
    CateData,
    CateNuisance,
    DteData,
    DteNuisance,
    cate_pseudo_outcome,
    cde_score,
    delta_decomposition,
    dte_score,
    dte_stage2_pseudo_outcome,
    make_folds,
)
from drnets.estimators import (
    ConstantSpec,
    EstimateReport,
    FixedSpec,
    LassoSpec,
    LearnerSpec,
    default_final_config,
    default_learner_spec,
    estimate_ate,
    estimate_cate,
    estimate_cde,
    estimate_dte,
    estimate_mu_dr,
    report_to_dict,
    report_to_json,
)
from drnets.simlab import (
    DgpConfig,
    coverage_study,
    double_robustness_study,
    gen_cate,
    gen_dte,
    generate,
    oracle_learner_spec,
    oracle_theta,
    orthogonality_study,
    rate_slope_study,
)

__version__ = "0.1.0"

# The public names are the classes, functions and errors imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
