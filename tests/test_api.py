"""The public surface: a change that drops or renames a public name fails here.

The benchmark tracer counts calls by name, so ``dte_score``, ``cde_score``,
``dte_stage2_pseudo_outcome`` and ``estimate_mu_dr`` must stay public.
"""

import os
import subprocess
import sys
from pathlib import Path

import drnets

PUBLIC_NAMES = [
    "CateData", "CateNuisance", "ConfigurationError", "ConstantSpec",
    "ConvergenceError", "DgpConfig", "DivergenceError", "DrnetsError", "DteData",
    "DteNuisance", "EmptySubgroupError", "EstimateReport", "EstimationError",
    "FixedSpec", "FoldError", "InputError", "LassoSpec", "LearnerSpec",
    "LinearModel", "MLPConfig", "MLPModel", "SeparationError", "SplitError",
    "StratumError", "cate_pseudo_outcome", "cde_score", "coverage_study",
    "default_final_config", "default_learner_spec", "delta_decomposition",
    "double_robustness_study", "dte_score", "dte_stage2_pseudo_outcome",
    "estimate_ate", "estimate_cate", "estimate_cde", "estimate_dte",
    "estimate_mu_dr", "gen_cate", "gen_dte", "generate", "lasso_fit",
    "logistic_lasso_fit", "make_folds", "mlp_fit", "mlp_init", "mlp_predict",
    "oracle_learner_spec", "oracle_theta", "orthogonality_study",
    "rate_slope_study", "report_to_dict", "report_to_json", "select_lambda",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 54
    assert sorted(drnets.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in drnets.__all__:
        assert getattr(drnets, name) is not None, name


def test_names_the_benchmark_tracer_counts_are_public():
    from drnets import estimators, scores

    for module, name in [(scores, "dte_score"), (scores, "cde_score"),
                         (scores, "dte_stage2_pseudo_outcome"),
                         (estimators, "estimate_mu_dr")]:
        assert name in drnets.__all__
        assert getattr(module, name) is getattr(drnets, name)


def test_import_loads_neither_scipy_nor_the_process_pool():
    """A fresh ``import drnets, drnets.cli`` loads no scipy module, and the
    process pool waits until a study runs on more than one worker."""
    code = ("import sys, drnets, drnets.cli; print('\\n'.join(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))")
    src = str(Path(drnets.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == []
