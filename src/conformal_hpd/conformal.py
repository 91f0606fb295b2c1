"""End-to-end conformal prediction pipelines.

Every fit function trains on the plan's training fold(s), computes
nonconformity scores on the calibration fold, and returns an immutable
model whose ``predict_regions`` maps covariate rows of shape (n, d) to a
``RegionBatch`` of interval unions with finite-sample marginal coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# coalesce, fit_kde and smallest_mass_region stay patchable here for tracing
from conformal_hpd.core import (  # noqa: F401
    ConfigError,
    Dataset,
    RegionBatch,
    SplitPlan,
    check_alpha,
    coalesce,
    conformal_q,
    conformal_r,
    first_float,
)
from conformal_hpd.hpd import level_set, smallest_mass_region  # noqa: F401
from conformal_hpd.kde import binned_kde, fit_kde  # noqa: F401
from conformal_hpd.regress import (
    KnnQuantiles,
    MeanEstimator,
    QuantileConfig,
    ScaleConfig,
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
    "predict_regions",
    "optimal_lower_level",
]

DCP_LADDER_LEVELS = np.round(np.arange(1, 100) / 100.0, 2)
DCP_SEARCH_STEP = 0.005


# ---------------------------------------------------------------------------
# KDE-HPD


def _folds(data: Dataset, plan: SplitPlan, joint: bool = True) -> tuple:
    """Training rows (train1 + train2, or train1 alone unless ``joint``) and the calibration fold.

    Unless ``joint``, train2 is the scale fold. Raises ConfigError on an index outside ``data``
    or an empty fold, before any estimator is fitted.
    """
    plan.check_against(data.n)
    idx_train = np.concatenate([plan.idx_train1, plan.idx_train2]) if joint else plan.idx_train1
    scale = () if joint else (("scale", plan.idx_train2),)
    for fold, idx in (("training", idx_train), ("calibration", plan.idx_cal), *scale):
        if idx.size == 0:
            rows = "/".join(str(a.size) for a in (plan.idx_train1, plan.idx_train2, plan.idx_cal))
            raise ConfigError(f"{fold} fold is empty: split of {rows} rows to train1/train2/cal")
    return data.subset(idx_train), data.subset(plan.idx_cal)


def _calibrated(model, cal: Dataset, alpha: float):
    """``model`` with its cutoff at the conformal 1 - alpha quantile of its scores on ``cal``."""
    return replace(model, cutoff=conformal_q(model.score(cal.x, cal.y), 1.0 - alpha))


@dataclass(frozen=True)
class KdeHpdConfig:
    scale: ScaleConfig = ScaleConfig()  # constant-one: homoscedastic mode


@dataclass(frozen=True)
class KdeHpdPipeline:
    """Highest-density conformal pipeline: {y : score(x, y) <= cutoff}.

    The score of y at x is -f(s), with s = (y - gh(x)) / sh(x) and f the
    ``score_density``. The region at x is gh(x) + sh(x) * ``intervals``, the
    s-space level set {f >= -cutoff} of that same f, computed once, when the
    region is first read. A cutoff of +inf, or any cutoff >= 0, gives the
    whole line; a cutoff below -max(f) gives no interval.
    """

    method = "kde-hpd"
    dropped_pairs = 0  # the level-set region drops nothing; bench/spans.py still reads it

    gh: MeanEstimator
    sh: KnnQuantiles | None  # None: the constant-one scale
    grid: np.ndarray
    density: np.ndarray
    cutoff: float

    def score_density(self, s) -> np.ndarray:
        """The training-fold KDE ``density`` on ``grid``, linearly interpolated, 0 off the grid."""
        return np.interp(s, self.grid, self.density, left=0.0, right=0.0)

    @cached_property
    def intervals(self) -> np.ndarray:
        return level_set(self.grid, self.density, -self.cutoff, self.score_density)

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    def score(self, xs, y) -> np.ndarray:
        """Minus the score density at the standardized residuals of ``y`` at rows ``xs``."""
        y = np.asarray(y, dtype=np.float64)
        s = (y - predict_mean(self.gh, xs)) / predict_scale(self.sh, xs)
        return -self.score_density(s)

    def predict_regions(self, xs) -> RegionBatch:
        g = predict_mean(self.gh, xs)[:, None]
        s = predict_scale(self.sh, xs)[:, None]
        lo, hi = self.intervals.T
        return RegionBatch(g + lo * s, g + hi * s)


def fit_kde_hpd(
    data: Dataset,
    plan: SplitPlan,
    alpha: float,
    config: KdeHpdConfig = KdeHpdConfig(),
) -> KdeHpdPipeline:
    """Fit the mean and scale, the score density, and the conformal cutoff.

    Under the constant-one scale the mean trains on train1 + train2 and the
    density on those rows' scores, as the baselines train; with a fitted
    scale the mean trains on train1, and the scale and the density on
    train2. The score is fixed before the calibration fold is seen, so the
    cutoff, its conformal 1 - alpha quantile there, gives finite-sample
    marginal coverage (Lei, Robins & Wasserman 2013; Izbicki, Shimizu &
    Stern 2022, HPD-split).
    """
    check_alpha(alpha)
    joint = config.scale.kind == "constant-one"
    train, cal = _folds(data, plan, joint=joint)
    gh = fit_mean(train)
    fit = train if joint else data.subset(plan.idx_train2)
    sh = fit_scale(fit, gh, config.scale)  # the constant-one scale reads no rows
    grid, density = binned_kde((fit.y - predict_mean(gh, fit.x)) / predict_scale(sh, fit.x))
    model = KdeHpdPipeline(gh=gh, sh=sh, grid=grid, density=density, cutoff=math.nan)
    return _calibrated(model, cal, alpha)


# ---------------------------------------------------------------------------
# Signed-error conformal region (SECPR)


@dataclass(frozen=True)
class SecprModel:
    """Signed-error conformal interval around a fitted mean."""

    method = "secpr"

    gh: MeanEstimator
    lower: float
    upper: float

    def predict_regions(self, xs) -> RegionBatch:
        g = predict_mean(self.gh, xs)[:, None]
        return RegionBatch(g + self.lower, g + self.upper)


def fit_secpr(data: Dataset, plan: SplitPlan, alpha: float) -> SecprModel:
    """Signed-error interval: the errors' conformal R statistic at alpha/2, Q at 1 - alpha/2."""
    check_alpha(alpha)
    train, cal = _folds(data, plan)
    gh = fit_mean(train)
    errors = cal.y - predict_mean(gh, cal.x)
    lower, upper = conformal_r(errors, alpha / 2), conformal_q(errors, 1 - alpha / 2)
    return SecprModel(gh=gh, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Conformalized quantile regression (CQR)


def _first_conforming(q: np.ndarray, c: float) -> np.ndarray:
    """Per entry of ``q``, the smallest float y with fl(q - y) <= ``c``.

    fl(q - y) is monotone in y and moves in steps of the ulp of y or of c,
    so the rounded ``q - c`` lies within two of those ulps of the answer;
    ``first_float`` finds it exactly in that bracket. An infinite ``q - c``
    stays as it is.
    """
    end = q - c
    finite = np.isfinite(end)
    with np.errstate(invalid="ignore"):  # the spacing of an infinite c is NaN
        slack = 2.0 * (np.spacing(np.abs(end)) + np.spacing(abs(c)))
    below, above = np.where(finite, end - slack, end), np.where(finite, end + slack, end)
    if (q - below <= c)[finite].any() or not (q - above <= c)[finite].all():
        raise RuntimeError("region end not bracketed")
    return first_float(below, above, lambda y: q - y <= c)


@dataclass(frozen=True)
class CqrModel:
    """Quantile-regression band widened by a conformal cutoff: {y : score(x, y) <= cutoff}.

    The ends are exact in floating point: the lower end is the smallest
    float y with fl(q_lo - y) <= cutoff, the upper the largest with
    fl(y - q_hi) <= cutoff.
    """

    method = "cqr"

    ladder: object  # two levels, alpha/2 then 1 - alpha/2
    cutoff: float

    def score(self, xs, y) -> np.ndarray:
        """Signed distance of responses ``y`` outside their rows' band: max(q_lo - y, y - q_hi)."""
        band = predict_quantile(self.ladder, xs)
        y = np.asarray(y, dtype=np.float64)
        return np.maximum(band[:, 0] - y, y - band[:, 1])

    def predict_regions(self, xs) -> RegionBatch:
        q_lo, q_hi = predict_quantile(self.ladder, xs).T
        # fl(y - q_hi) = fl(-q_hi - (-y)): the upper end is the lower end of -q_hi, negated
        ends = _first_conforming(np.concatenate((q_lo, -q_hi)), self.cutoff)
        lo, hi = ends[: q_lo.size], -ends[q_lo.size :]
        # a row whose cutoff shrank the band past empty has no interval
        return RegionBatch(lo[:, None], hi[:, None], counts=~(lo > hi))


def fit_cqr(
    data: Dataset,
    plan: SplitPlan,
    alpha: float,
) -> CqrModel:
    """CQR with equal-tailed kNN quantile bands at alpha/2 and 1 - alpha/2."""
    check_alpha(alpha)
    train, cal = _folds(data, plan)
    ladder = fit_quantile_ladder(train, np.array([alpha / 2, 1 - alpha / 2]), QuantileConfig())
    return _calibrated(CqrModel(ladder=ladder, cutoff=math.nan), cal, alpha)


# ---------------------------------------------------------------------------
# Distributional conformal prediction (DCP)


def _ladder_quantile(qmat: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Row-wise linear interpolation of the ladder at levels ``tau``, shape (n, G).

    ``tau`` is an (n, G) array of levels per row, or a (1, G) grid shared by every row.
    """
    levels = DCP_LADDER_LEVELS
    j = np.clip(np.searchsorted(levels, tau), 1, levels.size - 1)
    # levels beyond the ladder take the clamp branch below; clipping keeps w finite
    w = (np.clip(tau, levels[0], levels[-1]) - levels[j - 1]) / (levels[j] - levels[j - 1])
    if tau.shape[0] == 1:  # a shared grid: whole columns, no (n, G) index arrays
        below, above = qmat[:, j[0] - 1], qmat[:, j[0]]
    else:
        rows = np.arange(qmat.shape[0])[:, None]
        below, above = qmat[rows, j - 1], qmat[rows, j]
    # a flat segment (from the running max) interpolates to exactly its value
    out = np.where((levels[j] == tau) | (below == above), above, (1.0 - w) * below + w * above)
    return np.where(tau <= levels[0], qmat[:, :1], np.where(tau >= levels[-1], qmat[:, -1:], out))


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


def optimal_lower_level(qmat: np.ndarray, alpha: float) -> np.ndarray:
    """Per-row lower CDF level whose width-(1-alpha) interval is shortest.

    Grid search over [0, alpha] at step ``DCP_SEARCH_STEP``, intersected with the
    ladder's evaluable range: outside it the interpolation clamps to the
    edge quantile and fakes a shorter interval (a gamma ladder would
    otherwise always pick z = 0). Ties resolve to the smallest level.
    """
    z_grid = np.linspace(0.0, alpha, int(round(alpha / DCP_SEARCH_STEP)) + 1)
    levels = DCP_LADDER_LEVELS
    feasible = (z_grid >= levels[0] - 1e-12) & (z_grid + 1.0 - alpha <= levels[-1] + 1e-12)
    if feasible.any():
        z_grid = z_grid[feasible]
    z = z_grid[None, :]
    widths = _ladder_quantile(qmat, z + 1.0 - alpha) - _ladder_quantile(qmat, z)
    return z_grid[widths.argmin(axis=1)]


def _dcp_window(ladder, alpha: float, xs) -> tuple:
    """The monotonized ladder at rows ``xs`` and each row's window centre."""
    qmat = predict_quantile(ladder, xs)
    crossed = ~(qmat[:, 1:] >= qmat[:, :-1]).all(axis=1)  # the rows the running max changes
    qmat[crossed] = np.maximum.accumulate(qmat[crossed], axis=1)
    b_hat = optimal_lower_level(qmat, alpha)
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
        tau = center[:, None] + [-self.cutoff, self.cutoff]
        ends = _ladder_quantile(qmat, tau)
        return RegionBatch(ends[:, :1], ends[:, 1:])


def fit_dcp(
    data: Dataset,
    plan: SplitPlan,
    alpha: float,
) -> DcpModel:
    """DCP over a 99-level smoothed linear conditional quantile ladder.

    The ladder is monotonized by running maximum before use; scores are
    the distance of the observed CDF level from the centre of the
    shortest-interval window (``_dcp_scores``). A cutoff of 1 or more,
    such as the infinite one of a tiny calibration fold, gives the whole line.
    """
    check_alpha(alpha)
    train, cal = _folds(data, plan)
    ladder = fit_quantile_ladder(train, DCP_LADDER_LEVELS, QuantileConfig("linear-quantile"))
    return _calibrated(DcpModel(ladder=ladder, alpha=alpha, cutoff=math.nan), cal, alpha)


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
        from scipy.special import ndtri

        design = _design(_as_matrix(xs, self.d))
        center = design @ self.coef
        leverage = np.einsum("ij,jk,ik->i", design, self.xtx_inv, design)
        half = ndtri(1.0 - self.alpha / 2.0) * self.s * np.sqrt(1.0 + leverage)
        return RegionBatch((center - half)[:, None], (center + half)[:, None])


def fit_parametric_normal(data: Dataset, alpha: float) -> ParametricNormalModel:
    """Fit on every row of ``data`` (no calibration fold is needed)."""
    check_alpha(alpha)
    design = _design(data.x)
    coef = _ols(design, data.y)
    resid = data.y - design @ coef
    dof = data.n - design.shape[1]
    if dof <= 0:
        raise ConfigError(f"too few rows to fit a regression: {data.n} rows, {dof} residual dof")
    s = math.sqrt(float(resid @ resid) / dof)
    xtx_inv = np.linalg.inv(design.T @ design)
    return ParametricNormalModel(
        coef=coef, xtx_inv=xtx_inv, s=s, alpha=alpha, d=data.d
    )


# ---------------------------------------------------------------------------
# Generic entry points


def predict_regions(model, xs) -> RegionBatch:
    """Prediction regions for covariate rows ``xs`` of shape (n, d)."""
    return model.predict_regions(xs)
