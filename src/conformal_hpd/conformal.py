"""End-to-end conformal prediction pipelines.

Every fit function trains on the plan's training fold(s), computes
nonconformity scores on the calibration fold, and returns an immutable
model whose ``predict_regions`` maps covariate rows of shape (n, d) to a
``RegionBatch`` of interval unions with finite-sample marginal coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from conformal_hpd.core import (  # noqa: F401 - coalesce stays patchable here for tracing
    Dataset,
    PredictionRegion,
    RegionBatch,
    ScoreVector,
    SplitPlan,
    coalesce,
    conformal_q,
    conformal_r,
)
from conformal_hpd.hpd import HpdResult, smallest_mass_region
from conformal_hpd.kde import fit_kde
from conformal_hpd.regress import (
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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class KdeHpdConfig:
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

    def predict_regions(self, xs) -> RegionBatch:
        g = predict_mean(self.gh, xs)
        s = predict_scale(self.sh, xs)
        eta, gamma = np.array(self.eta_gamma, dtype=np.float64).reshape(-1, 2).T
        g, s = g[:, None], s[:, None]
        return RegionBatch(g + eta * s, g + gamma * s)


def fit_kde_hpd(
    data: Dataset,
    plan: SplitPlan,
    alpha: float,
    config: KdeHpdConfig = KdeHpdConfig(),
) -> KdeHpdPipeline:
    """Fit the full pipeline: mean, scale, scores, KDE level set, indices.

    The mean trains on train1 when a scale model is fitted on train2, and
    on train1 + train2 under the constant-one scale, as the baselines do.
    Quantile pairs whose conformal indices cross would be dropped from the
    union and counted; each kept pair carries at least the sliver mass, so
    its lower index stays below its upper one.
    """
    _check_alpha(alpha)
    plan.check_against(data.n)
    idx_mean = plan.idx_train1
    if config.scale.kind == "constant-one":
        idx_mean = np.concatenate([plan.idx_train1, plan.idx_train2])
    if idx_mean.size == 0:
        raise ValueError("training fold is empty")
    if plan.idx_cal.size == 0:
        raise ValueError("no calibration scores")
    gh = fit_mean(data.subset(idx_mean))
    sh = fit_scale(data.subset(plan.idx_train2), gh, config.scale)
    cal = data.subset(plan.idx_cal)
    scores = ScoreVector((cal.y - predict_mean(gh, cal.x)) / predict_scale(sh, cal.x))
    model = fit_kde(scores.v)
    hpd = smallest_mass_region(model, alpha)
    ends = [(conformal_r(scores, a), conformal_q(scores, 1.0 - b)) for a, b in hpd.pairs]
    eta_gamma = tuple((eta, gamma) for eta, gamma in ends if eta <= gamma)
    return KdeHpdPipeline(
        gh=gh,
        sh=sh,
        scores=scores,
        hpd=hpd,
        eta_gamma=eta_gamma,
        alpha=alpha,
        dropped_pairs=len(ends) - len(eta_gamma),
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

    def predict_regions(self, xs) -> RegionBatch:
        g = predict_mean(self.gh, xs)[:, None]
        return RegionBatch(g + self.lower, g + self.upper)


def fit_secpr(
    data: Dataset,
    plan: SplitPlan,
    alpha1: float,
    alpha2: float,
) -> SecprModel:
    """Signed-error region with split tail budgets ``alpha1 + alpha2``.

    Each budget must be non-negative and their sum must lie in (0, 1).
    """
    if not (alpha1 >= 0.0 and alpha2 >= 0.0 and 0.0 < alpha1 + alpha2 < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    plan.check_against(data.n)
    idx_train = np.concatenate([plan.idx_train1, plan.idx_train2])
    gh = fit_mean(data.subset(idx_train))
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

    ladder: object  # two levels, alpha/2 then 1 - alpha/2
    correction: float

    def predict_regions(self, xs) -> RegionBatch:
        band = predict_quantile(self.ladder, xs)
        lo = band[:, :1] - self.correction
        hi = band[:, 1:] + self.correction
        # a row whose correction shrank the band past empty has no interval
        return RegionBatch(lo, hi, counts=~(lo > hi)[:, 0])


def fit_cqr(
    data: Dataset,
    plan: SplitPlan,
    alpha: float,
    config: QuantileConfig = QuantileConfig(),
) -> CqrModel:
    """CQR with equal-tailed quantile bands at alpha/2 and 1 - alpha/2."""
    _check_alpha(alpha)
    plan.check_against(data.n)
    idx_train = np.concatenate([plan.idx_train1, plan.idx_train2])
    ladder = fit_quantile_ladder(data.subset(idx_train), [alpha / 2, 1 - alpha / 2], config)
    cal = data.subset(plan.idx_cal)
    if cal.n == 0:
        raise ValueError("no calibration scores")
    band = predict_quantile(ladder, cal.x)
    scores = ScoreVector(np.maximum(band[:, 0] - cal.y, cal.y - band[:, 1]))
    correction = conformal_q(scores, 1.0 - alpha)
    return CqrModel(ladder=ladder, correction=correction)


# ---------------------------------------------------------------------------
# Distributional conformal prediction (DCP)


def _ladder_quantile(qmat: np.ndarray, levels: np.ndarray, tau) -> np.ndarray:
    """Row-wise linear interpolation of the ladder at levels ``tau``.

    ``tau`` is one level for all rows, or an (n,) or (n, G) array of levels per row.
    """
    tau = np.asarray(tau, dtype=np.float64)
    tau = np.broadcast_to(tau, qmat.shape[:1] + tau.shape[1:])
    rows = np.arange(qmat.shape[0]).reshape(-1, *[1] * (tau.ndim - 1))
    j = np.clip(np.searchsorted(levels, tau), 1, levels.size - 1)
    # levels beyond the ladder take the clamp branch below; clipping keeps w finite
    w = (np.clip(tau, levels[0], levels[-1]) - levels[j - 1]) / (levels[j] - levels[j - 1])
    below, above = qmat[rows, j - 1], qmat[rows, j]
    # a flat segment (from the running max) interpolates to exactly its value
    out = np.where((levels[j] == tau) | (below == above), above, (1.0 - w) * below + w * above)
    first, last = qmat[rows, 0], qmat[rows, -1]
    return np.where(tau <= levels[0], first, np.where(tau >= levels[-1], last, out))


def _dcp_scores(qmat: np.ndarray, center: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distance of each y's ladder level from its row's window centre.

    The level is the row-wise inverse of the ladder, linear between knots.
    A y strictly outside its row's ladder [q_0.01, q_0.99] scores 1.0,
    above every in-ladder score, so it conforms only to a cutoff >= 1; the
    region, clamped to the ladder, never holds it either. At a flat
    segment (from the running max) the level jumps, and y there scores
    the distance from the centre to the jump's whole range, which keeps
    the region {score <= cutoff} closed.
    """
    levels, n_levels = DCP_LADDER_LEVELS, qmat.shape[1]
    upto = (qmat <= y[:, None]).sum(axis=1)  # knots at or below y
    first = (qmat < y[:, None]).sum(axis=1)  # knots below y: where a run of knots at y starts
    i = np.clip(upto, 1, n_levels - 1)
    rows = np.arange(y.size)
    q_lo, q_hi = qmat[rows, i - 1], qmat[rows, i]
    span = q_hi - q_lo
    w = np.where(span > 0, (y - q_lo) / np.where(span > 0, span, 1.0), 1.0)
    after = np.where(
        upto == n_levels, levels[-1], levels[i - 1] + w * (levels[i] - levels[i - 1])
    )
    before = np.where(first < upto, levels[np.minimum(first, n_levels - 1)], after)
    scores = np.maximum(np.maximum(before - center, center - after), 0.0)
    beyond = (y < qmat[:, 0]) | (y > qmat[:, -1])
    return np.where(beyond, 1.0, scores)


def optimal_lower_level(qmat: np.ndarray, levels: np.ndarray, alpha: float) -> np.ndarray:
    """Per-row lower CDF level whose width-(1-alpha) interval is shortest.

    Grid search over [0, alpha] at step ``DCP_SEARCH_STEP``, intersected with the
    ladder's evaluable range: outside it the interpolation clamps to the
    edge quantile and fakes a shorter interval (a gamma ladder would
    otherwise always pick z = 0). Ties resolve to the smallest level.
    """
    z_grid = np.linspace(0.0, alpha, int(round(alpha / DCP_SEARCH_STEP)) + 1)
    feasible = (z_grid >= levels[0] - 1e-12) & (z_grid + 1.0 - alpha <= levels[-1] + 1e-12)
    if feasible.any():
        z_grid = z_grid[feasible]
    z = z_grid[None, :]
    widths = _ladder_quantile(qmat, levels, z + 1.0 - alpha) - _ladder_quantile(qmat, levels, z)
    return z_grid[widths.argmin(axis=1)]


def _dcp_window(ladder, alpha: float, xs) -> tuple:
    """The monotonized ladder at rows ``xs`` and each row's window centre."""
    qmat = np.maximum.accumulate(predict_quantile(ladder, xs), axis=1)
    b_hat = optimal_lower_level(qmat, DCP_LADDER_LEVELS, alpha)
    return qmat, b_hat + 0.5 * (1.0 - alpha)


@dataclass(frozen=True)
class DcpModel:
    """Conformalized shortest-interval CDF inversion; always an interval.

    The region at x is exactly {y : score(x, y) <= cutoff}.
    """

    method = "dcp"

    ladder: object
    alpha: float
    cutoff: float

    def score(self, xs, y) -> np.ndarray:
        """Nonconformity scores of responses ``y`` at covariate rows ``xs``."""
        qmat, center = _dcp_window(self.ladder, self.alpha, xs)
        return _dcp_scores(qmat, center, np.asarray(y, dtype=np.float64))

    def predict_regions(self, xs) -> RegionBatch:
        if self.cutoff >= 1.0:  # every score is at most 1: every y conforms
            n = _as_matrix(xs, self.ladder.d).shape[0]
            return RegionBatch(np.full((n, 1), -np.inf), np.full((n, 1), np.inf))
        qmat, center = _dcp_window(self.ladder, self.alpha, xs)
        # levels beyond the ladder clamp to the outer quantiles, as the
        # scores of responses beyond them exceed the cutoff
        lo = _ladder_quantile(qmat, DCP_LADDER_LEVELS, center - self.cutoff)
        hi = _ladder_quantile(qmat, DCP_LADDER_LEVELS, center + self.cutoff)
        return RegionBatch(lo[:, None], hi[:, None])


def fit_dcp(
    data: Dataset,
    plan: SplitPlan,
    alpha: float,
    config: QuantileConfig = QuantileConfig(kind="linear-quantile"),
) -> DcpModel:
    """DCP over a 99-level conditional quantile ladder.

    The ladder is monotonized by running maximum before use; scores are
    the distance of the observed CDF level from the centre of the
    shortest-interval window (``_dcp_scores``). A cutoff of 1 or more,
    such as the infinite one of a tiny calibration fold, gives the whole line.
    """
    _check_alpha(alpha)
    plan.check_against(data.n)
    idx_train = np.concatenate([plan.idx_train1, plan.idx_train2])
    ladder = fit_quantile_ladder(data.subset(idx_train), DCP_LADDER_LEVELS, config)
    cal = data.subset(plan.idx_cal)
    if cal.n == 0:
        raise ValueError("no calibration scores")
    scores = ScoreVector(_dcp_scores(*_dcp_window(ladder, alpha, cal.x), cal.y))
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

    def predict_regions(self, xs) -> RegionBatch:
        design = _design(_as_matrix(xs, self.d))
        center = design @ self.coef
        leverage = np.einsum("ij,jk,ik->i", design, self.xtx_inv, design)
        half = ndtri(1.0 - self.alpha / 2.0) * self.s * np.sqrt(1.0 + leverage)
        return RegionBatch((center - half)[:, None], (center + half)[:, None])


def fit_parametric_normal(data: Dataset, alpha: float) -> ParametricNormalModel:
    """Fit on every row of ``data`` (no calibration fold is needed)."""
    _check_alpha(alpha)
    design = _design(data.x)
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


def predict_regions(model, xs) -> RegionBatch:
    """Prediction regions for covariate rows ``xs`` of shape (n, d)."""
    return model.predict_regions(xs)
