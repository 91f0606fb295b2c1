"""Conditional mean, scale, and quantile estimators.

``fit_*`` builds an estimator from a training fold and ``predict_*``
evaluates it at new covariates. The mean and DCP's ``LinearQuantiles`` are
plain fitted-state dataclasses; ``KnnQuantiles`` (CQR's band and the scale
fold) is a class whose constructor fits it. None changes after fitting,
and all are reentrant. The constant-one scale is None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from conformal_hpd.core import ConfigError, Dataset

__all__ = [
    "ScaleConfig",
    "QuantileConfig",
    "MeanEstimator",
    "KnnQuantiles",
    "LinearQuantiles",
    "fit_mean",
    "fit_scale",
    "fit_quantile_ladder",
    "predict_mean",
    "predict_scale",
    "predict_quantile",
]

# Lower clamp on predicted scales, so standardized scores stay finite.
SCALE_FLOOR = 1e-6

# Query rows per kNN distance block, for covariates with d > 1 columns
# only (one column takes the sorted window): keeps the (rows, n, d)
# difference tensor near 1 MB for fitted folds of hundreds of rows.
KNN_BLOCK = 256

# Smoothed quantile fit: a level stops once its largest gradient entry is
# at most QUANTILE_TOL; a fit still moving after QUANTILE_MAX_STEPS raises.
QUANTILE_TOL = 1e-8
QUANTILE_MAX_STEPS = 50


@dataclass(frozen=True)
class ScaleConfig:
    kind: str = "constant-one"
    level: float = 0.9


@dataclass(frozen=True)
class QuantileConfig:
    kind: str = "knn-quantile"


def _design(x: np.ndarray) -> np.ndarray:
    """Intercept and raw covariates: the mean and parametric design."""
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _quantile_design(x: np.ndarray) -> np.ndarray:
    """Intercept, raw and squared covariates: the linear quantile design."""
    return np.hstack([_design(x), x * x])


def _ols(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    rows, coefs = design.shape
    if rows < max(2, coefs):
        raise ConfigError(f"too few rows to fit a regression: {rows} rows for {coefs} coefficients")
    # lstsq counts singular values above matrix_rank's tolerance, eps max(M, N) S_max
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < coefs:
        raise ValueError("singular design matrix")
    return coef


def _as_matrix(x, d: int | None = None) -> np.ndarray:
    """Covariate rows as an (n, d) float array, any d if None; raises on other shapes or NaN/inf."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or d is not None and arr.shape[1] != d:
        raise ValueError(f"covariate dimension mismatch: expected (n, {d or 'd'}) array")
    if not np.isfinite(arr).all():
        raise ValueError("covariates must be finite")
    return arr


class KnnQuantiles:
    """Quantiles at ``levels`` of the k nearest fitted rows' targets: CQR's band, the scale fold.

    Rows are compared on sd-standardized covariates. With one covariate
    column the k nearest fitted rows are a contiguous window of the rows
    sorted by x, found by ``searchsorted`` and a bisection on the window
    start; every window's quantiles are taken at fit. Other widths compare
    every fitted row in blocks of ``KNN_BLOCK`` query rows. Ties in the
    window: of the windows whose rows are k nearest, the lowest-starting
    one is taken, so when two fitted rows are equally far from a query the
    one at the lower sorted position wins.
    """

    def __init__(self, x: np.ndarray, targets: np.ndarray, k: int, levels: np.ndarray):
        self.d, self.levels = x.shape[1], levels
        self.mu = x.mean(axis=0)
        sd = x.std(axis=0)
        sd[sd == 0] = 1.0
        self.sd = sd
        self.xs = (x - self.mu) / self.sd
        self.targets = targets
        self.k = int(min(max(k, 1), x.shape[0]))
        if x.shape[1] == 1:
            order = np.argsort(self.xs[:, 0], kind="stable")
            # the +inf pad keeps the last window from moving right
            self.sorted_x = np.append(self.xs[order, 0], np.inf)
            # the targets of every window of k sorted rows, (n - k + 1, k)
            self.windows = np.lib.stride_tricks.sliding_window_view(targets[order], self.k)
            # np.quantile is row-wise: row s has the bits of window s's quantile alone
            self.table = np.quantile(self.windows, levels, axis=1).T

    def neighbor_targets(self, x: np.ndarray) -> np.ndarray:
        """Targets of the k nearest fitted rows, shape (m, k)."""
        if x.shape[1] == 1:
            return self.windows[self._window_starts(x)]
        q = (x - self.mu) / self.sd
        out = np.empty((q.shape[0], self.k), dtype=self.targets.dtype)
        for start in range(0, q.shape[0], KNN_BLOCK):
            block = q[start : start + KNN_BLOCK]
            d2 = ((block[:, None, :] - self.xs[None, :, :]) ** 2).sum(axis=2)
            idx = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
            out[start : start + block.shape[0]] = self.targets[idx]
        return out

    def predict(self, x) -> np.ndarray:
        """``np.quantile(self.neighbor_targets(x), self.levels, axis=1).T``: (m, L)."""
        x = _as_matrix(x, self.d)
        if x.shape[1] == 1:
            return self.table[self._window_starts(x)]
        return np.quantile(self.neighbor_targets(x), self.levels, axis=1).T

    def _window_starts(self, x: np.ndarray) -> np.ndarray:
        """The start of the window of k sorted fitted rows nearest each query row of ``x``.

        A window starting at s moves right while its first row is strictly
        farther from q than the row after its end; that test turns false
        once, somewhere in [pos - k, pos] for pos = searchsorted(q).
        """
        q = (x[:, 0] - self.mu[0]) / self.sd[0]
        xs, k = self.sorted_x, self.k
        last = xs.size - 1 - k  # the highest window start
        pos = np.searchsorted(xs, q)
        lo = np.clip(pos - k, 0, last)
        hi = np.minimum(pos, last)
        for _ in range(k.bit_length()):  # the bracket holds at most k + 1 starts
            mid = (lo + hi) >> 1
            right = q - xs[mid] > xs[mid + k] - q
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        # a window of one repeated value below q ties with every lower
        # window of that value: start at the value's first row
        return np.minimum(lo, np.searchsorted(xs, xs[lo + k - 1]))


@dataclass(frozen=True)
class MeanEstimator:
    d: int
    coef: np.ndarray


@dataclass(frozen=True)
class LinearQuantiles:
    """DCP's smoothed linear quantiles at ``levels``, on the standardized quantile design."""

    d: int
    levels: np.ndarray
    coef: np.ndarray  # (p, L)
    mu: np.ndarray  # the design columns' means and sds
    sd: np.ndarray
    iterations: int  # Newton steps of the fit

    def predict(self, x) -> np.ndarray:
        design = (_quantile_design(_as_matrix(x, self.d)) - self.mu) / self.sd
        return design @ self.coef


def fit_mean(data: Dataset) -> MeanEstimator:
    """Train the point estimator: OLS on the raw covariates with an intercept."""
    return MeanEstimator(d=data.d, coef=_ols(_design(data.x), data.y))


def predict_mean(gh: MeanEstimator, x) -> np.ndarray:
    """Evaluate a fitted mean estimator at covariate rows ``x`` of shape (n, d)."""
    return _design(_as_matrix(x, gh.d)) @ gh.coef


def fit_scale(
    data: Dataset, gh: MeanEstimator | None, config: ScaleConfig = ScaleConfig()
) -> KnnQuantiles | None:
    """Train the scale model on absolute residuals from the mean fit.

    ``constant-one`` is None and reads neither ``data`` nor ``gh``.
    ``knn-quantile-absres`` takes the ``config.level`` quantile of
    |y - mean(x)| over the max(10, round(sqrt(n))) nearest rows; sqrt-n
    neighbourhoods keep the scale curve local (n/10 visibly over-smooths a
    steep sigma).
    """
    if config.kind not in ("constant-one", "knn-quantile-absres"):
        raise ConfigError(f"unknown scale estimator kind: {config.kind!r}")
    if config.kind == "constant-one":
        return None
    absres = np.abs(data.y - predict_mean(gh, data.x))
    k = max(10, round(math.sqrt(data.n)))
    return KnnQuantiles(data.x, absres, k, np.array([config.level]))


def predict_scale(sh: KnnQuantiles | None, x) -> np.ndarray:
    """Evaluate the scale model at rows ``x`` of shape (n, d); clamped at ``SCALE_FLOOR``."""
    if sh is None:  # the constant one; predict_mean, which every caller runs first, checks d
        return np.ones(_as_matrix(x).shape[0])
    return np.maximum(sh.predict(x)[:, 0], SCALE_FLOOR)


def _smoothed_quantiles(design: np.ndarray, y: np.ndarray, levels: np.ndarray):
    """Convolution-smoothed linear quantile regression at every level at once.

    Minimises the pinball loss convolved with a logistic kernel (He, Pan,
    Tan & Zhou 2023, "conquer"): with z = (y - X b) / s, G the logistic CDF
    and u = G(z) - 1/2 = copysign(1 / (1 + exp(-|z|)) - 1/2, z), the loss
    ``s mean(rho_tau(z) + log(1 + exp(-|z|)))`` has gradient
    ``X'(1/2 - tau - u) / n`` and Hessian ``X' diag(1/4 - u^2) X / (n s)``.
    The kernel's sd is conquer's bandwidth ``h = c max(0.01, sqrt(tau (1 -
    tau)) min((p + log n) / n, 0.5) ** 0.4)``, c the OLS residual sd, so its
    logistic scale is s = h sqrt(3) / pi.

    Damped Newton on all levels from the OLS fit, each intercept moved to
    the residual tau-quantile. The Hessian gains max|grad| X'X / (n c), which
    keeps it invertible when few residuals lie within s of the fit and fades
    at the optimum; steps that fail the Armijo test are halved. A level stops
    once its largest gradient entry (free of the scale of y) is at most
    ``QUANTILE_TOL``. Returns the (p, L) coefficients and the steps taken.
    A trial's z is one product, ``([1, -b] / s) @ [resid; X']``; mean(z), the
    gradient ``(1/2 - tau) mean(X) - u X / n`` and the Hessian weights
    ``mean(X X') / 4 - u^2 (X X') / n`` need no (L, n) difference either.
    Four (L, n) work arrays, made per call, hold u, a trial's u and scratch.
    """
    n, p = design.shape
    w0 = _ols(design, y)
    resid = y - design @ w0  # the fit is translation-invariant
    c = max(float(np.std(resid)), 1e-8)
    h = c * np.maximum(0.01, np.sqrt(levels * (1 - levels)) * min((p + math.log(n)) / n, 0.5) ** 0.4)
    s = h * math.sqrt(3) / math.pi
    outer = (design[:, :, None] * design[:, None, :]).reshape(n, p * p)
    gram = (design.T @ design / (n * c)).ravel()  # laid out like the rows of outer
    aug_t = np.vstack([resid, design.T])
    aug_mean, mean_outer = aug_t.mean(axis=1), outer.mean(axis=0)
    by_n = np.full(n, 1.0 / n)  # a row mean as a matrix-vector product
    u, trial_u, z, e = np.empty((4, levels.size, n))

    def evaluate(b, at, out):
        """The loss at offsets ``b``, one row per level index in ``at``; u goes to ``out``."""
        zk, ek, uk = z[: at.size], e[: at.size], out[: at.size]
        coefs = np.hstack([np.ones((at.size, 1)), -b]) / s[at, None]
        np.matmul(coefs, aug_t, out=zk)
        mean_neg = np.negative(np.abs(zk, out=ek), out=ek) @ by_n  # mean(-|z|)
        np.add(np.exp(ek, out=ek), 1.0, out=ek)
        # mean(min(z, 0)) = (mean(z) + mean(-|z|)) / 2
        loss = (levels[at] - 0.5) * (coefs @ aug_mean) - 0.5 * mean_neg + np.log(ek, out=uk) @ by_n
        np.copysign(np.subtract(np.reciprocal(ek, out=uk), 0.5, out=uk), zk, out=uk)
        return s[at] * loss

    b = np.zeros((levels.size, p))  # offsets from the OLS fit, one row per level
    b[:, 0] = np.quantile(resid, levels)
    active = np.arange(levels.size)  # levels still moving; rows of u and loss follow it
    loss = evaluate(b, active, u)
    for step in range(QUANTILE_MAX_STEPS + 1):
        k = active.size
        grad = (0.5 - levels[active])[:, None] * aug_mean[1:] - u[:k] @ design / n
        curv = 0.25 * mean_outer - np.square(u[:k], out=e[:k]) @ outer / n
        keep = np.abs(grad).max(axis=1) > QUANTILE_TOL
        active, loss, grad, curv = (a[keep] for a in (active, loss, grad, curv))
        if active.size == 0:
            return (w0 + b).T, step
        if step == QUANTILE_MAX_STEPS:
            raise RuntimeError(
                f"smoothed quantile fit did not converge at levels {levels[active].tolist()}"
            )
        hess = (curv / s[active, None] + np.abs(grad).max(axis=1)[:, None] * gram).reshape(-1, p, p)
        move = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        slope = (grad * move).sum(axis=1)
        t, todo = np.ones(active.size), np.arange(active.size)
        while todo.size:
            trial = b[active[todo]] + t[todo, None] * move[todo]
            # the first trial writes every row of u, and a row's last trial is the one it accepts
            lt = evaluate(trial, active[todo], u if todo.size == active.size else trial_u)
            if todo.size < active.size:
                u[todo] = trial_u[: todo.size]
            # the slack absorbs rounding in the loss, so a step too small to
            # move b passes and the halving ends
            ok = lt <= loss[todo] * (1.0 + 1e-12) + 1e-4 * t[todo] * slope[todo]
            b[active[todo[ok]]] = trial[ok]
            loss[todo[ok]] = lt[ok]
            todo = todo[~ok]
            t[todo] *= 0.5


def fit_quantile_ladder(
    data: Dataset, levels, config: QuantileConfig = QuantileConfig()
) -> KnnQuantiles | LinearQuantiles:
    """Fit conditional quantiles at a 1-D array of levels jointly."""
    if config.kind not in ("knn-quantile", "linear-quantile"):
        raise ConfigError(f"unknown quantile estimator kind: {config.kind!r}")
    levels = np.asarray(levels, dtype=np.float64)
    if levels.ndim != 1 or ((levels <= 0) | (levels >= 1)).any():
        raise ConfigError("quantile levels must be a 1-D array in (0, 1)")
    if config.kind == "knn-quantile":
        k = max(10, data.n // 10)
        if data.n < k:
            raise ConfigError(f"too few rows to fit a regression: {data.n} rows for {k} neighbours")
        return KnnQuantiles(data.x, data.y, k, levels)
    # linear-quantile: standardized columns keep the Newton system well scaled
    design = _quantile_design(data.x)
    mu = design.mean(axis=0)
    sd = design.std(axis=0)
    mu[0], sd[0] = 0.0, 1.0  # leave the intercept column alone
    sd[sd == 0] = 1.0
    coef, steps = _smoothed_quantiles((design - mu) / sd, data.y, levels)
    return LinearQuantiles(d=data.d, levels=levels, coef=coef, mu=mu, sd=sd, iterations=steps)


def predict_quantile(qe: KnnQuantiles | LinearQuantiles, x) -> np.ndarray:
    """The fitted quantile ladder at covariate rows ``x`` of shape (n, d), shape (n, L)."""
    return qe.predict(x)
