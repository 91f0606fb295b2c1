"""Conformal prediction regions from highest-predictive-density sets.

Splits data into training/calibration folds, standardizes residuals with
pluggable mean and scale estimators, estimates their density with a kernel
density estimate on the training fold, and keeps the responses whose
density clears a conformal cutoff from the calibration fold, which gives
finite-sample marginal coverage.
"""

from conformal_hpd.conformal import (
    KdeHpdConfig,
    KdeHpdPipeline,
    fit_cqr,
    fit_dcp,
    fit_kde_hpd,
    fit_parametric_normal,
    fit_secpr,
    predict_regions,
)
from conformal_hpd.core import (
    Dataset,
    PredictionRegion,
    ScoreVector,
    SplitPlan,
    coalesce,
    conformal_q,
    conformal_r,
    hausdorff,
    region_contains,
    region_length,
)
from conformal_hpd.sim import (
    Scenario,
    conditional_coverage,
    generate,
    hausdorff_diagnostic,
    run_replications,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "PredictionRegion",
    "ScoreVector",
    "SplitPlan",
    "coalesce",
    "conformal_q",
    "conformal_r",
    "hausdorff",
    "region_contains",
    "region_length",
    "KdeHpdConfig",
    "KdeHpdPipeline",
    "fit_kde_hpd",
    "fit_secpr",
    "fit_cqr",
    "fit_dcp",
    "fit_parametric_normal",
    "predict_regions",
    "Scenario",
    "generate",
    "run_replications",
    "summarize",
    "conditional_coverage",
    "hausdorff_diagnostic",
    "__version__",
]
