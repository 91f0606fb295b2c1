"""Smallest 1-alpha sets of a univariate density by one exact-mass level-set search.

The smallest set of mass 1 - alpha is the superlevel set {f >= lambda} at
the largest cutoff whose mass reaches 1 - alpha (Hyndman 1996; Lei, Robins &
Wasserman 2013). ``level_set`` is the one extractor: the runs of a grid at or
above the level, each inner end the outermost float of its cell where ``f``
reaches the level, found by ``core.first_float``. kde-hpd reads it on its
binned KDE, ``f`` the ``np.interp`` of the grid; ``find_cutoff`` on the exact
KDE, where the grid brackets the cutoff and the mass comes off the exact CDF
(the scenario oracles are exact to the float in ``sim``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from conformal_hpd.core import check_alpha, first_float
from conformal_hpd.kde import KdeModel, kde_cdf, kde_eval

__all__ = [
    "HpdResult",
    "find_cutoff",
    "level_set",
    "extract_intervals",
    "quantile_pairs",
    "smallest_mass_region",
]

# Tolerances of the cutoff search (see find_cutoff)
MASS_TOL = 1e-10
CUTOFF_TOL = 1e-12
MAX_STEPS = 100


def _next(x_prev, f_prev, x, fx, lo, hi):
    """Secant step through the last two points, elementwise, or the midpoint
    of the bracket [lo, hi] where the step leaves it or |f| did not halve."""
    x_sec = x - fx * (x - x_prev) / (fx - f_prev)
    fast = ((x_sec - lo) * (x_sec - hi) <= 0) & (np.abs(fx) <= 0.5 * np.abs(f_prev))
    return np.where(fast, x_sec, 0.5 * (lo + hi))


def _runs(mask) -> tuple:
    """First and last index of every run of True in ``mask``."""
    padded = np.concatenate(([False], mask, [False]))
    rise, fall = padded[1:] & ~padded[:-1], ~padded[1:] & padded[:-1]
    return np.flatnonzero(rise), np.flatnonzero(fall) - 1


def level_set(grid, values, level: float, f) -> np.ndarray:
    """Closed intervals where the density ``f`` >= ``level``, as (m, 2).

    ``f`` maps a 1-D array to a 1-D array, and ``values`` are its
    non-negative values on the increasing ``grid``. Each run of grid points
    at or above ``level`` is one interval, in grid order; a grid point below
    ``level`` parts two runs, so ``hi_j < lo_{j+1}``. An end on the first or
    last grid point stays there; every other end is the first float of its
    cell where ``f`` reaches ``level`` (the last, for an upper end), found by
    bisection within a few roundings of the closed-form linear crossing of
    ``values``, or within the whole cell where that bracket misses. For the
    ``np.interp`` of the grid the bracket holds; elsewhere it may not.
    ``level <= 0`` gives the whole line; a level above every value gives no
    interval.
    """
    if level <= 0:
        return np.array([[-np.inf, np.inf]])
    starts, ends = _runs(values >= level)
    out = np.concatenate((grid[starts], grid[ends]))
    # the cell left of a start and right of an end, where they lie on the grid
    cell = np.concatenate((starts - 1, ends))
    inner = (cell >= 0) & (cell < grid.size - 1)
    rising = np.flatnonzero(inner) < starts.size  # lower ends, where the function rises
    a = cell[inner]
    lo, hi, v_lo, v_hi = grid[a], grid[a + 1], values[a], values[a + 1]
    slope = (v_hi - v_lo) / (hi - lo)  # as np.interp takes it
    guess = lo + (level - v_lo) / slope
    # np.interp rounds to an ulp of its values, which moves the crossing by that over the slope
    ulps = np.spacing(np.maximum(v_lo, v_hi)) / np.abs(slope) + np.spacing(np.abs(lo) + np.abs(hi))

    def holds(s):  # at or past a lower end, or past an upper end
        return (f(s) >= level) == rising

    below, above = np.maximum(guess - 4.0 * ulps, lo), np.minimum(guess + 4.0 * ulps, hi)
    first = first_float(np.where(holds(below), lo, below), np.where(holds(above), above, hi), holds)
    out[inner] = np.where(rising, first, np.nextafter(first, -np.inf))
    return out.reshape(2, -1).T


def _tail_pairs(cdf, intervals) -> np.ndarray:
    """(mass below lo, mass above hi) per interval, from one ``cdf`` call."""
    c = cdf(np.reshape(intervals, -1)).reshape(-1, 2)
    return np.column_stack((c[:, 0], 1.0 - c[:, 1]))


def find_cutoff(density, cdf, grid, values, alpha: float) -> float:
    """Largest cutoff whose superlevel intervals carry mass >= 1 - alpha.

    ``density`` and ``cdf`` map 1-D arrays to 1-D arrays; ``values`` is
    ``density`` on the sorted uniform ``grid``. The mass at a cutoff is the
    sum of 1 - a - b over the tail-mass pairs (a, b) that ``cdf`` gives at the
    ends of its ``level_set`` on ``density``; extracting again at the
    returned cutoff gives the same ends and pairs. The search starts from the
    grid's Riemann estimate, takes one Newton step on the grid's slope, then
    secant steps, bisecting whenever the excess mass fails to halve.

    Tolerance: the returned cutoff's mass is at least 1 - alpha, and either at
    most 1 - alpha + ``MASS_TOL``, or a cutoff at most ``CUTOFF_TOL`` times
    the largest grid density higher carries less (the mass jumps there).
    When no positive cutoff reaches 1 - alpha (a component no grid point
    sees, or alpha below the mass outside the grid), the result is 0, whose
    superlevel set is the whole line.
    """
    check_alpha(alpha)
    target = 1.0 - alpha

    def excess(lam):
        pairs = _tail_pairs(cdf, level_set(grid, values, lam, density))
        return float((1.0 - pairs[:, 0] - pairs[:, 1]).sum()) - target

    top = values.max()
    step = grid[1] - grid[0]
    rise = np.abs(np.diff(values))
    lo, hi = np.float64(0.0), top  # the whole line at 0; at most a sliver around the top
    desc = np.sort(values)[::-1]
    lam = desc[min(np.searchsorted(np.cumsum(desc) * step, target), desc.size - 1)]
    g_prev = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_STEPS):
            if not lo < lam < hi:
                lam = 0.5 * (lo + hi)
            g = excess(lam) - 0.5 * MASS_TOL  # aim mid-window, so either side can land in it
            if abs(g) <= 0.5 * MASS_TOL:
                return float(lam)
            lo, hi = (lam, hi) if g > 0.0 else (lo, lam)
            if hi - lo <= CUTOFF_TOL * top:
                return float(lo)
            if g_prev is None:  # Newton on the grid: dM/dlam = -lam * sum of 1/|f'|
                nxt = lam + g / (lam * step * np.sum(1.0 / rise[np.diff(values > lam)]))
            else:
                nxt = _next(lam_prev, g_prev, lam, g, lo, hi)
            lam_prev, g_prev, lam = lam, g, nxt
    raise RuntimeError("cutoff search did not converge")


def extract_intervals(model: KdeModel, lambda_hat: float) -> np.ndarray:
    """Maximal disjoint intervals where the KDE is at least ``lambda_hat``, shape (m, 2).

    ``level_set`` on the model's cached grid and exact density. Raises if
    the cutoff is above the density maximum on the grid.
    """
    intervals = level_set(
        model.grid, model.grid_density, lambda_hat, lambda z: kde_eval(model, z)
    )
    if intervals.size == 0:
        raise ValueError("empty HPD set")
    return intervals


def quantile_pairs(model: KdeModel, intervals) -> np.ndarray:
    """Tail-mass pair (mass below lo, mass above hi) per interval, shape (m, 2).

    One vectorised ``kde_cdf`` call covers every endpoint.
    """
    return _tail_pairs(lambda z: kde_cdf(model, z), intervals)


@dataclass(frozen=True)
class HpdResult:
    """Cutoff, superlevel intervals, and their tail-mass pairs for one level."""

    lambda_hat: float
    intervals: tuple
    pairs: tuple


def smallest_mass_region(model: KdeModel, alpha: float) -> HpdResult:
    """Cutoff, intervals and their tail pairs for the KDE at level ``alpha``.

    ``extract_intervals`` and ``quantile_pairs`` reproduce, at the cutoff
    ``find_cutoff`` accepts, the ends and pairs whose mass it measured.
    """
    density, cdf = (lambda z: kde_eval(model, z)), (lambda z: kde_cdf(model, z))
    lam = find_cutoff(density, cdf, model.grid, model.grid_density, alpha)
    intervals = extract_intervals(model, lam)
    return HpdResult(
        lambda_hat=lam,
        intervals=tuple(map(tuple, intervals.tolist())),
        pairs=tuple(map(tuple, quantile_pairs(model, intervals).tolist())),
    )
