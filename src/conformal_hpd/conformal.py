"""End-to-end conformal prediction pipelines.

Every fit function trains on the plan's training fold(s), computes
nonconformity scores on the calibration fold, and returns an immutable
model whose ``predict_regions`` maps covariate rows of shape (n, d) to
finite unions of closed intervals with finite-sample marginal coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from conformal_hpd.core import (
    Dataset,
    PredictionRegion,
    ScoreVector,
    SplitPlan,
    coalesce,
    conformal_q,
    conformal_r,
)
from conformal_hpd.hpd import HpdResult, smallest_mass_region
from conformal_hpd.kde import fit_kde
from conformal_hpd.regress import (
    MeanConfig,
    MeanEstimator,
    QuantileConfig,
    ScaleConfig,
    ScaleEstimator,
    _as_matrix,
    _design,
    _ols,
    fit_mean,
    fit_quantile_ladder,
    fit_scale,
    predict_mean,
    predict_quantile,
    predict_scale,
)

__all__ = [
    "KdeHpdConfig",
    "KdeHpdPipeline",
    "SecprModel",
    "CqrModel",
    "DcpModel",
    "ParametricNormalModel",
    "fit_kde_hpd",
    "fit_secpr",
    "fit_cqr",
    "fit_dcp",
    "fit_parametric_normal",
    "predict_region",
    "predict_regions",
    "secpr_corrections",
    "optimal_lower_level",
]

DCP_LADDER_LEVELS = np.round(np.arange(1, 100) / 100.0, 2)
DCP_SEARCH_STEP = 0.005


# ---------------------------------------------------------------------------
# KDE-HPD


@dataclass(frozen=True)
class KdeHpdConfig:
    mean: MeanConfig = MeanConfig()
    scale: ScaleConfig = ScaleConfig()  # constant-one: homoscedastic mode


@dataclass(frozen=True)
class KdeHpdPipeline:
    """Fitted highest-density conformal pipeline."""

    method = "kde-hpd"

    gh: MeanEstimator
    sh: ScaleEstimator
    scores: ScoreVector
    hpd: HpdResult
    eta_gamma: tuple
    alpha: float
    dropped_pairs: int = 0

    @property
    def n_intervals(self) -> int:
        return len(self.eta_gamma)

    def predict_regions(self, xs) -> list[PredictionRegion]:
        g = predict_mean(self.gh, xs)
        s = predict_scale(self.sh, xs)
        out = []
        for gi, si in zip(g, s):
            ivals = tuple((gi + eta * si, gi + gamma * si) for eta, gamma in self.eta_gamma)
            out.append(coalesce(PredictionRegion(ivals)))
        return out


def fit_kde_hpd(
    data: Dataset,
    plan: SplitPlan,
    alpha: float,
    config: KdeHpdConfig = KdeHpdConfig(),
) -> KdeHpdPipeline:
    """Fit the full pipeline: mean, scale, scores, KDE level set, indices.

    Quantile pairs whose conformal indices cross (possible for sliver
    intervals after clamping) are dropped from the union and counted.
    """
    plan.check_against(data.n)
    if plan.idx_train1.size == 0:
        raise ValueError("training fold is empty")
    if plan.idx_cal.size == 0:
        raise ValueError("no calibration scores")
    gh = fit_mean(data.subset(plan.idx_train1), config.mean)
    sh = fit_scale(data.subset(plan.idx_train2), gh, config.scale)
    cal = data.subset(plan.idx_cal)
    scores = ScoreVector((cal.y - predict_mean(gh, cal.x)) / predict_scale(sh, cal.x))
    model = fit_kde(scores.v)
    hpd = smallest_mass_region(model, alpha)
    eta_gamma = []
    dropped = 0
    for (a_j, b_j) in hpd.pairs:
        eta = conformal_r(scores, a_j)
        gamma = conformal_q(scores, 1.0 - b_j)
        if eta <= gamma:
            eta_gamma.append((eta, gamma))
        else:
            dropped += 1
    return KdeHpdPipeline(
        gh=gh,
        sh=sh,
        scores=scores,
        hpd=hpd,
        eta_gamma=tuple(eta_gamma),
        alpha=alpha,
        dropped_pairs=dropped,
    )


# ---------------------------------------------------------------------------
# Signed-error conformal region (SECPR)


def secpr_corrections(scores: ScoreVector, alpha1: float, alpha2: float) -> tuple:
    """Signed-error interval offsets: lower R order statistic, upper Q."""
    return conformal_r(scores, alpha1), conformal_q(scores, 1.0 - alpha2)


@dataclass(frozen=True)
class SecprModel:
    """Signed-error conformal interval around a fitted mean."""

    method = "secpr"

    gh: MeanEstimator
    scores: ScoreVector
    alpha1: float
    alpha2: float
    lower: float
    upper: float

    def predict_regions(self, xs) -> list[PredictionRegion]:
        g = predict_mean(self.gh, xs)
        return [
            coalesce(PredictionRegion(((gi + self.lower, gi + self.upper),)))
            for gi in g
        ]


def fit_secpr(
    data: Dataset,
    plan: SplitPlan,
    alpha1: float,
    alpha2: float,
    config: MeanConfig = MeanConfig(),
) -> SecprModel:
    """Signed-error region with split tail budgets ``alpha1 + alpha2``."""
    plan.check_against(data.n)
    idx_train = np.concatenate([plan.idx_train1, plan.idx_train2])
    gh = fit_mean(data.subset(idx_train), config)
    cal = data.subset(plan.idx_cal)
    if cal.n == 0:
        raise ValueError("no calibration scores")
    scores = ScoreVector(cal.y - predict_mean(gh, cal.x))
    lower, upper = secpr_corrections(scores, alpha1, alpha2)
    return SecprModel(
        gh=gh, scores=scores, alpha1=alpha1, alpha2=alpha2, lower=lower, upper=upper
    )


# ---------------------------------------------------------------------------
# Conformalized quantile regression (CQR)


@dataclass(frozen=True)
class CqrModel:
    """Quantile-regression band widened by a conformal correction."""

    method = "cqr"

    ladder: object
    level_low: float
    level_high: float
    correction: float

    def predict_regions(self, xs) -> list[PredictionRegion]:
        lo = predict_quantile(self.ladder, xs, self.level_low)
        hi = predict_quantile(self.ladder, xs, self.level_high)
        out = []
        for li, ui in zip(lo, hi):
            a, b = li - self.correction, ui + self.correction
            if a > b:  # correction shrank the band past empty
                out.append(PredictionRegion())
            else:
                out.append(PredictionRegion(((a, b),)))
        return out


def fit_cqr(
    data: Dataset,
    plan: SplitPlan,
    alpha: float,
    config: QuantileConfig = QuantileConfig(),
    levels: tuple | None = None,
) -> CqrModel:
    """CQR with quantile bands at ``levels`` (default equal tails alpha/2)."""
    plan.check_against(data.n)
    level_low, level_high = levels if levels is not None else (alpha / 2, 1 - alpha / 2)
    idx_train = np.concatenate([plan.idx_train1, plan.idx_train2])
    ladder = fit_quantile_ladder(
        data.subset(idx_train), [level_low, level_high], config
    )
    cal = data.subset(plan.idx_cal)
    if cal.n == 0:
        raise ValueError("no calibration scores")
    qlo = predict_quantile(ladder, cal.x, level_low)
    qhi = predict_quantile(ladder, cal.x, level_high)
    scores = ScoreVector(np.maximum(qlo - cal.y, cal.y - qhi))
    correction = conformal_q(scores, 1.0 - alpha)
    return CqrModel(
        ladder=ladder,
        level_low=level_low,
        level_high=level_high,
        correction=correction,
    )


# ---------------------------------------------------------------------------
# Distributional conformal prediction (DCP)


def _ladder_quantile(qmat: np.ndarray, levels: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise linear interpolation of the quantile ladder at one level."""
    if tau <= levels[0]:
        return qmat[:, 0]
    if tau >= levels[-1]:
        return qmat[:, -1]
    j = int(np.searchsorted(levels, tau))
    if levels[j] == tau:
        return qmat[:, j]
    w = (tau - levels[j - 1]) / (levels[j] - levels[j - 1])
    return (1.0 - w) * qmat[:, j - 1] + w * qmat[:, j]


def _ladder_cdf(qmat: np.ndarray, levels: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise inverse of the ladder, clamped to the outer levels."""
    idx = (qmat <= y[:, None]).sum(axis=1)
    out = np.empty(y.shape)
    out[idx == 0] = levels[0]
    out[idx == qmat.shape[1]] = levels[-1]
    mid = (idx > 0) & (idx < qmat.shape[1])
    i = idx[mid]
    rows = np.flatnonzero(mid)
    q_lo = qmat[rows, i - 1]
    q_hi = qmat[rows, i]
    span = q_hi - q_lo
    w = np.where(span > 0, (y[mid] - q_lo) / np.where(span > 0, span, 1.0), 1.0)
    out[mid] = levels[i - 1] + w * (levels[i] - levels[i - 1])
    return out


def optimal_lower_level(
    qmat: np.ndarray, levels: np.ndarray, alpha: float, step: float = DCP_SEARCH_STEP
) -> np.ndarray:
    """Per-row lower CDF level whose width-(1-alpha) interval is shortest.

    Grid search over [0, alpha] at the given step, intersected with the
    ladder's evaluable range: outside it the interpolation clamps to the
    edge quantile and fakes a shorter interval (a gamma ladder would
    otherwise always pick z = 0). Ties resolve to the smallest level.
    """
    z_grid = np.linspace(0.0, alpha, int(round(alpha / step)) + 1)
    feasible = (z_grid >= levels[0] - 1e-12) & (z_grid + 1.0 - alpha <= levels[-1] + 1e-12)
    if feasible.any():
        z_grid = z_grid[feasible]
    widths = np.column_stack(
        [
            _ladder_quantile(qmat, levels, z + 1.0 - alpha)
            - _ladder_quantile(qmat, levels, z)
            for z in z_grid
        ]
    )
    return z_grid[widths.argmin(axis=1)]


@dataclass(frozen=True)
class DcpModel:
    """Conformalized shortest-interval CDF inversion; always an interval."""

    method = "dcp"

    ladder: object
    alpha: float
    cutoff: float
    levels: np.ndarray = field(default_factory=lambda: DCP_LADDER_LEVELS)

    def _monotone_ladder(self, xs) -> np.ndarray:
        qmat = predict_quantile(self.ladder, xs)
        return np.maximum.accumulate(qmat, axis=1)

    def predict_regions(self, xs) -> list[PredictionRegion]:
        qmat = self._monotone_ladder(xs)
        b_hat = optimal_lower_level(qmat, self.levels, self.alpha)
        center = b_hat + 0.5 * (1.0 - self.alpha)
        lo_level = center - self.cutoff
        hi_level = center + self.cutoff
        out = []
        for i in range(qmat.shape[0]):
            # levels beyond the ladder range clamp to the outer quantiles,
            # keeping the interval finite (generalized inversion would
            # return an unbounded endpoint there)
            lo = float(_ladder_quantile(qmat[i : i + 1], self.levels, lo_level[i])[0])
            hi = float(_ladder_quantile(qmat[i : i + 1], self.levels, hi_level[i])[0])
            out.append(PredictionRegion(((lo, hi),)))
        return out


def fit_dcp(
    data: Dataset,
    plan: SplitPlan,
    alpha: float,
    config: QuantileConfig = QuantileConfig(kind="linear-quantile"),
) -> DcpModel:
    """DCP over a 99-level conditional quantile ladder.

    The ladder is monotonized by running maximum before use; scores are
    the distance of the observed CDF level from the centre of the
    shortest-interval window.
    """
    plan.check_against(data.n)
    idx_train = np.concatenate([plan.idx_train1, plan.idx_train2])
    ladder = fit_quantile_ladder(data.subset(idx_train), DCP_LADDER_LEVELS, config)
    cal = data.subset(plan.idx_cal)
    if cal.n == 0:
        raise ValueError("no calibration scores")
    qmat = np.maximum.accumulate(
        predict_quantile(ladder, cal.x), axis=1
    )
    b_hat = optimal_lower_level(qmat, DCP_LADDER_LEVELS, alpha)
    f_vals = _ladder_cdf(qmat, DCP_LADDER_LEVELS, cal.y)
    scores = ScoreVector(np.abs(f_vals - b_hat - 0.5 * (1.0 - alpha)))
    cutoff = conformal_q(scores, 1.0 - alpha)
    return DcpModel(ladder=ladder, alpha=alpha, cutoff=cutoff)


# ---------------------------------------------------------------------------
# Parametric normal baseline


@dataclass(frozen=True)
class ParametricNormalModel:
    """OLS prediction interval with normal errors and leverage widening."""

    method = "parametric-normal"

    coef: np.ndarray
    xtx_inv: np.ndarray
    s: float
    alpha: float
    d: int

    def predict_regions(self, xs) -> list[PredictionRegion]:
        design = _design(_as_matrix(xs, self.d), ("raw",))
        center = design @ self.coef
        leverage = np.einsum("ij,jk,ik->i", design, self.xtx_inv, design)
        half = norm.ppf(1.0 - self.alpha / 2.0) * self.s * np.sqrt(1.0 + leverage)
        return [
            PredictionRegion(((c - h, c + h),)) for c, h in zip(center, half)
        ]


def fit_parametric_normal(data: Dataset, alpha: float) -> ParametricNormalModel:
    """Fit on every row of ``data`` (no calibration fold is needed)."""
    design = _design(data.x, ("raw",))
    coef = _ols(design, data.y)
    resid = data.y - design @ coef
    dof = data.n - design.shape[1]
    if dof <= 0:
        raise ValueError("too few rows to fit a regression")
    s = math.sqrt(float(resid @ resid) / dof)
    xtx_inv = np.linalg.inv(design.T @ design)
    return ParametricNormalModel(
        coef=coef, xtx_inv=xtx_inv, s=s, alpha=alpha, d=data.d
    )


# ---------------------------------------------------------------------------
# Generic entry points


def predict_region(model, x) -> PredictionRegion:
    """Prediction region for one covariate row, ``x`` of shape (1, d)."""
    return predict_regions(model, x)[0]


def predict_regions(model, xs) -> list[PredictionRegion]:
    """Prediction regions for covariate rows ``xs`` of shape (n, d)."""
    return model.predict_regions(xs)
