"""Univariate Gaussian kernel density estimation.

Bandwidth follows the rule-of-thumb constant with the sample size exponent
raised to -1/3, which trades mean-integrated-squared-error optimality for
tighter level-set recovery. ``binned_kde`` gives the density on a uniform
grid by linear binning and one FFT convolution (Silverman 1982; Fan &
Marron 1994); ``KdeModel`` with ``kde_eval`` and ``kde_cdf`` is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

__all__ = ["KdeModel", "bandwidth", "binned_kde", "fit_kde", "kde_eval", "kde_cdf"]

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


def _grid(pts: np.ndarray, h: float) -> np.ndarray:
    return np.linspace(pts.min() - _GRID_PAD * h, pts.max() + _GRID_PAD * h, _GRID_SIZE)


def binned_kde(points) -> tuple:
    """The KDE of ``points`` at the rule-of-thumb ``bandwidth`` on a uniform grid.

    Returns ``(grid, values)``: ``KdeModel``'s grid, and the density there
    from linear binning (each point's unit weight split between the two
    grid points around it) convolved with the kernel sampled at every grid
    lag, by one zero-padded real FFT. The values are clipped at 0 against
    FFT rounding; they differ from ``kde_eval`` on the grid by the binning
    error, O(grid step squared).
    """
    pts = np.asarray(points, dtype=np.float64)
    h = bandwidth(pts)
    grid = _grid(pts, h)
    step = grid[1] - grid[0]
    pos = (pts - grid[0]) / step
    cell = np.clip(np.floor(pos).astype(np.intp), 0, _GRID_SIZE - 2)
    frac = pos - cell
    counts = np.bincount(cell, 1.0 - frac, _GRID_SIZE) + np.bincount(cell + 1, frac, _GRID_SIZE)
    # kernel at lags 0 .. G-1 then -G .. -1: grid points are at most G - 1
    # apart, so the circular convolution of length 2G never wraps a lag
    lags = np.arange(-_GRID_SIZE, _GRID_SIZE) * (step / h)
    kernel = np.fft.ifftshift(np.exp(-0.5 * lags * lags))
    size = 2 * _GRID_SIZE
    conv = np.fft.irfft(np.fft.rfft(counts, size) * np.fft.rfft(kernel), size)[:_GRID_SIZE]
    values = np.maximum(conv, 0.0) / (pts.size * h * _SQRT_2PI)
    return grid, values


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
        grid = _grid(pts, self.h)
        dens = kde_eval(self, grid)
        grid.flags.writeable = False
        dens.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "grid_density", dens)

    @property
    def n(self) -> int:
        return self.points.size


def fit_kde(points) -> KdeModel:
    """Build a KdeModel at the rule-of-thumb ``bandwidth``."""
    return KdeModel(points=np.asarray(points, dtype=np.float64), h=bandwidth(points))


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
