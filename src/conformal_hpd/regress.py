"""Pluggable conditional mean, scale, and quantile estimators.

Estimators are plain fitted-state dataclasses; ``fit_*`` builds them from
a training fold and ``predict_*`` evaluates them at new covariates. All
are immutable after fitting and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from conformal_hpd.core import Dataset

__all__ = [
    "MeanConfig",
    "ScaleConfig",
    "QuantileConfig",
    "MeanEstimator",
    "ScaleEstimator",
    "QuantileEstimator",
    "fit_mean",
    "fit_scale",
    "fit_quantile_ladder",
    "predict_mean",
    "predict_scale",
    "predict_quantile",
]

MEAN_KINDS = ("ols-linear", "ols-with-features", "knn-mean", "constant")
SCALE_KINDS = ("constant-one", "ols-absres", "knn-quantile-absres", "binned-quantile-absres")
QUANTILE_KINDS = ("knn-quantile", "linear-quantile")

_FEATURES = {
    "raw": lambda x: x,
    "square": lambda x: x * x,
    "abs": lambda x: np.abs(x),
}


@dataclass(frozen=True)
class MeanConfig:
    kind: str = "ols-linear"
    feature_map: tuple = ("raw",)
    k: int | None = None  # knn neighbourhood size; default n // 10


@dataclass(frozen=True)
class ScaleConfig:
    kind: str = "constant-one"
    floor: float = 1e-6
    level: float = 0.9
    k: int | None = None
    bins: int = 10


@dataclass(frozen=True)
class QuantileConfig:
    kind: str = "knn-quantile"
    feature_map: tuple = ("raw", "square")
    k: int | None = None


def _design(x: np.ndarray, feature_map) -> np.ndarray:
    cols = [np.ones((x.shape[0], 1))]
    for name in feature_map:
        try:
            cols.append(_FEATURES[name](x))
        except KeyError:
            raise ValueError(f"unknown feature transform: {name!r}") from None
    return np.hstack(cols)


def _ols(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    if design.shape[0] < 2:
        raise ValueError("too few rows to fit a regression")
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise ValueError("singular design matrix")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef


def _as_matrix(x, d: int) -> np.ndarray:
    """Covariate rows as an (n, d) float array; raises on any other shape or a non-finite entry."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError(f"covariate dimension mismatch: expected (n, {d}) array")
    if not np.isfinite(arr).all():
        raise ValueError("covariates must be finite")
    return arr


class _Knn:
    """Shared nearest-neighbour lookup on sd-standardized covariates."""

    def __init__(self, x: np.ndarray, targets: np.ndarray, k: int):
        self.mu = x.mean(axis=0)
        sd = x.std(axis=0)
        sd[sd == 0] = 1.0
        self.sd = sd
        self.xs = (x - self.mu) / self.sd
        self.targets = targets
        self.k = int(min(max(k, 1), x.shape[0]))

    def neighbor_targets(self, x: np.ndarray) -> np.ndarray:
        q = (x - self.mu) / self.sd
        d2 = ((q[:, None, :] - self.xs[None, :, :]) ** 2).sum(axis=2)
        idx = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
        return self.targets[idx]


@dataclass(frozen=True)
class MeanEstimator:
    kind: str
    d: int
    coef: np.ndarray | None = None
    feature_map: tuple = ("raw",)
    knn: _Knn | None = None
    value: float = 0.0


@dataclass(frozen=True)
class ScaleEstimator:
    kind: str
    d: int
    floor: float = 1e-6
    level: float = 0.9
    coef: np.ndarray | None = None
    knn: _Knn | None = None
    bin_edges: np.ndarray | None = None
    bin_values: np.ndarray | None = None


@dataclass(frozen=True)
class QuantileEstimator:
    kind: str
    d: int
    levels: np.ndarray
    feature_map: tuple = ("raw", "square")
    coef: np.ndarray | None = None  # (p, L) for the linear kind
    knn: _Knn | None = None
    scale_mu: np.ndarray | None = None
    scale_sd: np.ndarray | None = None


def fit_mean(data: Dataset, config: MeanConfig = MeanConfig()) -> MeanEstimator:
    """Train a point estimator on the first training fold."""
    if config.kind not in MEAN_KINDS:
        raise ValueError(f"unknown mean estimator kind: {config.kind!r}")
    if config.kind == "constant":
        return MeanEstimator(kind="constant", d=data.d, value=float(data.y.mean()))
    if config.kind == "knn-mean":
        k = config.k if config.k is not None else max(10, data.n // 10)
        return MeanEstimator(kind="knn-mean", d=data.d, knn=_Knn(data.x, data.y, k))
    fmap = config.feature_map if config.kind == "ols-with-features" else ("raw",)
    coef = _ols(_design(data.x, fmap), data.y)
    return MeanEstimator(kind=config.kind, d=data.d, coef=coef, feature_map=fmap)


def predict_mean(gh: MeanEstimator, x) -> np.ndarray:
    """Evaluate a fitted mean estimator at covariate rows ``x`` of shape (n, d)."""
    xm = _as_matrix(x, gh.d)
    if gh.kind == "constant":
        return np.full(xm.shape[0], gh.value)
    if gh.kind == "knn-mean":
        return gh.knn.neighbor_targets(xm).mean(axis=1)
    return _design(xm, gh.feature_map) @ gh.coef


def fit_scale(
    data: Dataset, gh: MeanEstimator | None, config: ScaleConfig = ScaleConfig()
) -> ScaleEstimator:
    """Train the scale model on absolute residuals from the mean fit.

    ``constant-one`` uses only the covariate dimension of ``data`` (its
    rows may be empty); every other kind regresses |y - mean(x)| on x,
    clamped below at ``config.floor``.
    """
    if config.kind not in SCALE_KINDS:
        raise ValueError(f"unknown scale estimator kind: {config.kind!r}")
    if config.kind == "constant-one":
        return ScaleEstimator(kind="constant-one", d=data.d, floor=config.floor)
    if data.n == 0:
        raise ValueError("scale fold is empty")
    absres = np.abs(data.y - predict_mean(gh, data.x))
    if config.kind == "ols-absres":
        coef = _ols(_design(data.x, ("raw",)), absres)
        return ScaleEstimator(kind=config.kind, d=data.d, floor=config.floor, coef=coef)
    if config.kind == "knn-quantile-absres":
        # sqrt-n neighbourhoods: the scale curve needs locality more than
        # variance reduction (n/10 visibly over-smooths a steep sigma)
        k = config.k if config.k is not None else max(10, round(math.sqrt(data.n)))
        return ScaleEstimator(
            kind=config.kind,
            d=data.d,
            floor=config.floor,
            level=config.level,
            knn=_Knn(data.x, absres, k),
        )
    # binned-quantile-absres: per-bin empirical quantile over one covariate
    if data.d != 1:
        raise ValueError("binned-quantile-absres requires a single covariate")
    x1 = data.x[:, 0]
    edges = np.linspace(x1.min(), x1.max(), config.bins + 1)
    which = np.clip(np.digitize(x1, edges[1:-1]), 0, config.bins - 1)
    values = np.full(config.bins, np.nan)
    for b in range(config.bins):
        sel = which == b
        if sel.any():
            values[b] = np.quantile(absres[sel], config.level)
    # backfill empty bins from the nearest populated one
    filled = np.flatnonzero(~np.isnan(values))
    if filled.size == 0:
        raise ValueError("scale fold is empty")
    for b in np.flatnonzero(np.isnan(values)):
        values[b] = values[filled[np.abs(filled - b).argmin()]]
    return ScaleEstimator(
        kind=config.kind,
        d=1,
        floor=config.floor,
        level=config.level,
        bin_edges=edges,
        bin_values=values,
    )


def predict_scale(sh: ScaleEstimator, x) -> np.ndarray:
    """Evaluate the scale model at rows ``x`` of shape (n, d); clamped at the floor."""
    xm = _as_matrix(x, sh.d)
    if sh.kind == "constant-one":
        return np.ones(xm.shape[0])
    if sh.kind == "ols-absres":
        vals = _design(xm, ("raw",)) @ sh.coef
    elif sh.kind == "knn-quantile-absres":
        vals = np.quantile(sh.knn.neighbor_targets(xm), sh.level, axis=1)
    else:
        # nearest bin also serves queries outside the training range
        centers = 0.5 * (sh.bin_edges[:-1] + sh.bin_edges[1:])
        idx = np.abs(xm[:, 0][:, None] - centers[None, :]).argmin(axis=1)
        vals = sh.bin_values[idx]
    return np.maximum(vals, sh.floor)


def _pinball_descent(
    design: np.ndarray, y: np.ndarray, levels: np.ndarray, iterations: int = 1000
) -> np.ndarray:
    """Subgradient descent on the pinball loss, one column per level.

    Fixed step schedule c / sqrt(t) from an OLS warm start; returns the
    average of the second-half iterates. Runs in float32 with
    preallocated buffers: the loop is memory-bound and coefficient noise
    at that precision sits far below quantile sampling noise.
    """
    n, p = design.shape
    w0 = _ols(design, y)
    resid = y - design @ w0  # loop input is translation-invariant
    c = max(float(np.std(resid)), 1e-8)
    design32 = np.ascontiguousarray(design, dtype=np.float32)
    design32_t = np.ascontiguousarray(design32.T)
    y_col = np.ascontiguousarray(resid, dtype=np.float32).reshape(-1, 1)
    tau_row = np.asarray(levels, dtype=np.float32).reshape(1, -1)
    L = levels.size
    w = np.zeros((p, L), dtype=np.float32)  # OLS warm start after centring
    acc = np.zeros((p, L), dtype=np.float64)
    pred = np.empty((n, L), dtype=np.float32)
    mask = np.empty((n, L), dtype=bool)
    psi = np.empty((n, L), dtype=np.float32)
    grad = np.empty((p, L), dtype=np.float32)
    kept = 0
    for t in range(1, iterations + 1):
        np.dot(design32, w, out=pred)
        np.greater_equal(pred, y_col, out=mask)  # 1{residual <= 0}
        np.subtract(tau_row, mask, out=psi)
        np.dot(design32_t, psi, out=grad)
        w += (c / (math.sqrt(t) * n)) * grad
        if t > iterations // 2:
            acc += w
            kept += 1
    return w0[:, None] + acc / kept


def fit_quantile_ladder(
    data: Dataset, levels, config: QuantileConfig = QuantileConfig()
) -> QuantileEstimator:
    """Fit conditional quantiles at several levels jointly."""
    if config.kind not in QUANTILE_KINDS:
        raise ValueError(f"unknown quantile estimator kind: {config.kind!r}")
    levels = np.atleast_1d(np.asarray(levels, dtype=np.float64))
    if ((levels <= 0) | (levels >= 1)).any():
        raise ValueError("quantile levels must lie in (0, 1)")
    if config.kind == "knn-quantile":
        k = config.k if config.k is not None else max(10, data.n // 10)
        if data.n < max(k, 10):
            raise ValueError("too few rows to fit a regression")
        return QuantileEstimator(
            kind="knn-quantile", d=data.d, levels=levels, knn=_Knn(data.x, data.y, k)
        )
    # linear-quantile: standardize feature columns for a stable step size
    design = _design(data.x, config.feature_map)
    mu = design.mean(axis=0)
    sd = design.std(axis=0)
    mu[0], sd[0] = 0.0, 1.0  # leave the intercept column alone
    sd[sd == 0] = 1.0
    coef = _pinball_descent((design - mu) / sd, data.y, levels)
    return QuantileEstimator(
        kind="linear-quantile",
        d=data.d,
        levels=levels,
        feature_map=config.feature_map,
        coef=coef,
        scale_mu=mu,
        scale_sd=sd,
    )


def predict_quantile(qe: QuantileEstimator, x, level: float | None = None):
    """Evaluate fitted quantile(s) at covariate rows ``x`` of shape (n, d).

    With ``level=None`` returns the full ladder, shape (n, L); with a
    fitted level returns that column, shape (n,).
    """
    xm = _as_matrix(x, qe.d)
    if qe.kind == "knn-quantile":
        neigh = qe.knn.neighbor_targets(xm)
        vals = np.quantile(neigh, qe.levels, axis=1).T  # (n, L)
    else:
        design = (_design(xm, qe.feature_map) - qe.scale_mu) / qe.scale_sd
        vals = design @ qe.coef
    if level is None:
        return vals
    matches = np.flatnonzero(np.isclose(qe.levels, level))
    if matches.size == 0:
        raise ValueError(f"level {level} was not fitted")
    return vals[:, matches[0]]
