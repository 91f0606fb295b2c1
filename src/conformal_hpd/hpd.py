"""Smallest 1-alpha set extraction from a kernel density estimate.

Finds the density cutoff whose sublevel set carries mass alpha, the
disjoint intervals where the density exceeds the cutoff, and each
interval's tail-mass pair under the smoothed CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from conformal_hpd.kde import KdeModel, kde_cdf, kde_eval

__all__ = [
    "HpdResult",
    "find_cutoff",
    "superlevel_intervals",
    "extract_intervals",
    "quantile_pairs",
    "smallest_mass_region",
]

# Intervals holding less smoothed mass than this are treated as tail
# wiggles: their conformal indices would clamp and blow up region size.
MIN_COMPONENT_MASS = 1e-3


def _sublevel_mass(grid: np.ndarray, density: np.ndarray, lam: float) -> float:
    return float(np.trapezoid(np.where(density <= lam, density, 0.0), grid))


def find_cutoff(model: KdeModel, alpha: float) -> float:
    """Density height whose sublevel set carries mass ``alpha``.

    Bisection on the cutoff against the trapezoid mass over the cached
    grid; the mass is monotone in the cutoff, so the bracket always
    converges.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grid, density = model.grid, model.grid_density
    lo, hi = 0.0, float(density.max())
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        mass = _sublevel_mass(grid, density, mid)
        if abs(mass - alpha) < 1e-6:
            return mid
        if mass < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def superlevel_intervals(density, grid, values, lam, iterations) -> list[tuple[float, float]]:
    """Maximal intervals where ``density`` exceeds ``lam``, refined off-grid.

    ``values`` is ``density`` on the sorted ``grid``. Runs of grid points
    above ``lam`` give the intervals; every interior boundary is then
    bisected between its grid point at-or-below the cutoff and the
    adjacent one above it, all boundaries together with one vectorised
    ``density`` call per iteration, to ``step * 2**-iterations``. A run
    touching either end of the grid keeps that grid point. Returns an
    empty list when no grid point exceeds ``lam``.
    """
    padded = np.concatenate(([False], values > lam, [False]))
    starts = np.flatnonzero(padded[1:] & ~padded[:-1])
    ends = np.flatnonzero(~padded[1:] & padded[:-1]) - 1
    lo, hi = grid[starts], grid[ends]
    inner_lo = starts > 0
    inner_hi = ends < grid.size - 1
    below = np.concatenate((grid[starts[inner_lo] - 1], grid[ends[inner_hi] + 1]))
    above = np.concatenate((lo[inner_lo], hi[inner_hi]))
    for _ in range(iterations):
        mid = 0.5 * (below + above)
        up = density(mid) > lam
        above = np.where(up, mid, above)
        below = np.where(up, below, mid)
    cross = 0.5 * (below + above)
    k = int(inner_lo.sum())
    lo[inner_lo] = cross[:k]
    hi[inner_hi] = cross[k:]
    return [(float(a), float(b)) for a, b in zip(lo, hi)]


def extract_intervals(model: KdeModel, lambda_hat: float) -> list[tuple[float, float]]:
    """Maximal disjoint intervals where the density exceeds ``lambda_hat``.

    Scans the cached grid for runs above the cutoff and refines each run
    boundary by 20 bisection steps on the exact density. Raises if the
    cutoff is at or above the density maximum.
    """
    if lambda_hat < 0:
        raise ValueError("cutoff must be non-negative")
    intervals = superlevel_intervals(
        lambda z: kde_eval(model, z), model.grid, model.grid_density, lambda_hat, 20
    )
    if not intervals:
        raise ValueError("empty HPD set")
    return intervals


def quantile_pairs(model: KdeModel, intervals) -> list[tuple[float, float]]:
    """Tail-mass pair (lower mass below lo, upper mass above hi) per interval."""
    pairs = []
    for lo, hi in intervals:
        pairs.append((float(kde_cdf(model, lo)), float(1.0 - kde_cdf(model, hi))))
    return pairs


@dataclass(frozen=True)
class HpdResult:
    """Cutoff, retained intervals, and their tail-mass pairs for one level."""

    lambda_hat: float
    intervals: tuple
    pairs: tuple
    alpha: float


def smallest_mass_region(model: KdeModel, alpha: float) -> HpdResult:
    """Full extraction: cutoff, intervals, sliver suppression, tail pairs."""
    lam = find_cutoff(model, alpha)
    intervals = extract_intervals(model, lam)
    kept = [
        (lo, hi)
        for lo, hi in intervals
        if kde_cdf(model, hi) - kde_cdf(model, lo) >= MIN_COMPONENT_MASS
    ]
    if not kept:  # every component was a sliver; keep the widest instead
        kept = [max(intervals, key=lambda iv: iv[1] - iv[0])]
    pairs = quantile_pairs(model, kept)
    return HpdResult(
        lambda_hat=lam,
        intervals=tuple(kept),
        pairs=tuple(pairs),
        alpha=alpha,
    )
