"""Univariate Gaussian kernel density estimation over calibration scores.

Bandwidth follows the rule-of-thumb constant with the sample size exponent
raised to -1/3, which trades mean-integrated-squared-error optimality for
tighter level-set recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

__all__ = ["KdeModel", "bandwidth", "fit_kde", "kde_eval", "kde_cdf"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_GRID_SIZE = 2048
_GRID_PAD = 4.0  # kernel sd units; leaves < 1e-4 mass outside the grid
_MAX_BLOCK = 4_000_000  # cap on points-times-queries per evaluation block


def bandwidth(points) -> float:
    """Rule-of-thumb bandwidth at the n**(-1/3) rate.

    h = 0.9 * min(sd, IQR / 1.34) * n**(-1/3), falling back to the sd
    alone when the IQR is zero, and to 1e-3 when both are degenerate.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.size
    if n < 2:
        return 1e-3
    sd = float(np.std(pts, ddof=1))
    q25, q75 = np.percentile(pts, [25.0, 75.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 1e-12 * max(1.0, float(np.abs(pts).max())):
        return 1e-3
    return 0.9 * spread * n ** (-1.0 / 3.0)


@dataclass(frozen=True)
class KdeModel:
    """Gaussian KDE with a cached uniform evaluation grid.

    The grid spans [min(points) - 4h, max(points) + 4h]. It only brackets
    the level-set search (``hpd.find_cutoff``), whose mass comes from the
    exact ``kde_cdf``.
    """

    points: np.ndarray
    h: float
    grid: np.ndarray = field(init=False)
    grid_density: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("points must be a nonempty vector")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if not self.h > 0:
            raise ValueError("bandwidth must be positive")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        lo = pts.min() - _GRID_PAD * self.h
        hi = pts.max() + _GRID_PAD * self.h
        grid = np.linspace(lo, hi, _GRID_SIZE)
        dens = kde_eval(self, grid)
        grid.flags.writeable = False
        dens.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "grid_density", dens)

    @property
    def n(self) -> int:
        return self.points.size


def fit_kde(points, h: float | None = None) -> KdeModel:
    """Build a KdeModel, choosing the bandwidth rule when ``h`` is None."""
    if h is None:
        h = bandwidth(points)
    return KdeModel(points=np.asarray(points, dtype=np.float64), h=float(h))


def _blocked(model: KdeModel, z, kernel_fn) -> np.ndarray:
    zs = np.asarray(z, dtype=np.float64)
    if zs.ndim != 1:
        raise ValueError(f"query points must be a 1-dimensional array, got {zs.ndim} dimensions")
    out = np.empty(zs.shape, dtype=np.float64)
    step = max(1, _MAX_BLOCK // model.n)
    for start in range(0, zs.size, step):
        block = zs[start : start + step]
        t = (block[:, None] - model.points[None, :]) / model.h
        out[start : start + step] = kernel_fn(t).mean(axis=1)
    return out


def kde_eval(model: KdeModel, z) -> np.ndarray:
    """Exact kernel density values at the 1-D array ``z`` (no grid interpolation)."""
    return _blocked(model, z, lambda t: np.exp(-0.5 * t * t) / (_SQRT_2PI * model.h))


def kde_cdf(model: KdeModel, z) -> np.ndarray:
    """Exact smoothed CDF at the 1-D array ``z``: the average kernel CDF over the points."""
    return _blocked(model, z, ndtr)
