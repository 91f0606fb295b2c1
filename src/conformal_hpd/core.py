"""Shared domain types: datasets, prediction regions, conformal order
statistics, and set-distance utilities.

All types are immutable after construction and safe to share across
parallel replications.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "check_alpha",
    "Dataset",
    "SplitPlan",
    "PredictionRegion",
    "RegionBatch",
    "conformal_q",
    "conformal_r",
    "coalesce",
    "score_intervals",
    "region_length",
    "region_contains",
    "hausdorff",
]


class ConfigError(ValueError):
    """An argument outside its domain (a level, a tag, a fold, a flag, an input file): exit 2."""


def check_alpha(alpha: float) -> None:
    """Raise :class:`ConfigError` unless ``0 < alpha < 1`` (NaN fails too)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")


def _as_readonly(a, ndim: int):
    out = np.array(a, dtype=np.float64, copy=True)
    if out.ndim != ndim:
        raise ValueError(f"expected {ndim}-dimensional array, got {out.ndim}")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Paired covariate/response samples.

    Parameters
    ----------
    x : array_like, shape (n, d)
        Covariate matrix.
    y : array_like, shape (n,)
        Response vector.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_readonly(self.x, 2)
        y = _as_readonly(self.y, 1)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"row mismatch: x has {x.shape[0]} rows, y has {y.shape[0]}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, idx) -> "Dataset":
        """Row-subset view as a new Dataset."""
        idx = np.asarray(idx, dtype=np.intp)
        return Dataset(self.x[idx], self.y[idx])


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint fold indices for the two training folds and calibration.

    ``idx_train2`` may be empty (homoscedastic mode, unit scale).
    """

    idx_train1: np.ndarray
    idx_train2: np.ndarray
    idx_cal: np.ndarray

    def __post_init__(self):
        for name in ("idx_train1", "idx_train2", "idx_cal"):
            arr = np.array(getattr(self, name), dtype=np.intp, copy=True)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a flat index list")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # sorted, equal neighbours are repeats: np.sort takes a tenth of np.unique's time
        all_idx = np.sort(np.concatenate([self.idx_train1, self.idx_train2, self.idx_cal]))
        if all_idx.size and all_idx[0] < 0:
            raise ValueError("negative fold index")
        if (all_idx[1:] == all_idx[:-1]).any():
            raise ValueError("fold index lists must be pairwise disjoint")

    def check_against(self, n: int) -> None:
        """Raise if any fold index falls outside ``range(n)``."""
        for name in ("idx_train1", "idx_train2", "idx_cal"):
            arr = getattr(self, name)
            if arr.size and arr.max() >= n:
                raise ConfigError(f"{name} contains index >= n={n}")

    @classmethod
    def sequential(cls, order, n1: int, n2: int) -> "SplitPlan":
        """Folds from ``order``: the first ``n1`` entries, the next ``n2``, the rest to calibration."""
        return cls(order[:n1], order[n1 : n1 + n2], order[n1 + n2 :])


def _check_interval(lo: float, hi: float, at: str = "") -> None:
    """Raise ValueError, placed by ``at``, unless ``[lo, hi]`` has no NaN end and ``lo <= hi``."""
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"interval endpoints must not be NaN{at}")
    if lo > hi:
        raise ValueError(f"interval has lo > hi{at}: ({lo}, {hi})")


@dataclass(frozen=True)
class PredictionRegion:
    """Finite union of closed intervals on the response axis.

    Intervals are ``(lo, hi)`` pairs with ``lo <= hi``, in any order;
    endpoints may be ``-inf`` / ``+inf`` (clamped order statistics).
    :func:`region_length` adds their lengths: the union's measure when no
    two overlap, as in a :class:`RegionBatch` row or a :func:`coalesce` result.
    """

    intervals: tuple = ()

    def __post_init__(self):
        ivals = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivals:
            _check_interval(lo, hi)
        object.__setattr__(self, "intervals", ivals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)


class RegionBatch(Sequence):
    """Prediction regions of n covariate rows as (n, J) ``lo``/``hi`` arrays.

    Row ``i`` is the union of ``[lo[i, j], hi[i, j]]`` for ``j < counts[i]``
    (all ``J`` by default); later entries are NaN padding, and a row may be
    empty. Producers build rows in order and the constructor checks it: no
    NaN end, ``lo <= hi`` and ``hi[i, j] <= lo[i, j + 1]``, else ValueError
    naming the row and the column. Touching ends are kept, not merged:
    rounding in ``g + s * x`` (``s > 0``) never reverses two ends but may
    make them equal, as ``1e17 + 1.0 == 1e17 + 1.1``, and membership and
    :func:`score_intervals` sizes are the same either way. Indexing and
    iteration give :class:`PredictionRegion` views of the rows.
    """

    def __init__(self, lo, hi, counts=None):
        lo, hi = (np.asarray(a, dtype=np.float64) for a in (lo, hi))
        if lo.ndim != 2 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be (n, J) arrays of the same shape")
        n, width = lo.shape
        self.counts = np.array(np.full(n, width) if counts is None else counts, dtype=np.intp)
        # at least one column: an empty row's first entry is NaN padding
        if width == 0:
            lo = hi = np.full((n, 1), np.nan)
        present = np.arange(lo.shape[1]) < self.counts[:, None]
        bad = present & ~(lo <= hi)  # a NaN end too
        bad[:, 1:] |= present[:, 1:] & ~(hi[:, :-1] <= lo[:, 1:])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            at = f" at row {i}, column {j}"
            _check_interval(lo[i, j], hi[i, j], at)
            raise ValueError(f"interval starts before the previous one ends{at}")
        self.lo, self.hi = (np.where(present, a, np.nan) for a in (lo, hi))
        for a in (self.lo, self.hi, self.counts):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, i) -> PredictionRegion:
        i = range(len(self))[operator.index(i)]
        c = self.counts[i]
        return PredictionRegion(tuple(zip(self.lo[i, :c].tolist(), self.hi[i, :c].tolist())))

    def flat(self):
        """Row index, interval index, lo and hi of every interval, row by row.

        A row with no interval gives one ``(row, 0, nan, nan)`` entry.
        """
        keep = np.arange(self.lo.shape[1]) < np.maximum(self.counts, 1)[:, None]
        rows, index = np.nonzero(keep)
        return rows, index, self.lo[keep], self.hi[keep]


def _ceil_index(x: float) -> int:
    # Snap products like 0.95 * (n + 1) that land within one ulp of an
    # integer before applying ceil, so the index matches exact rationals.
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(x))


def _order_stat(scores, delta: float, offset: float) -> float:
    """The ceil(delta*(n+1) - offset)-th smallest of n scores, with +/-inf clamping outside 1..n.

    Raises ValueError unless ``scores`` is a non-empty 1-D array of finite values.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"expected 1-dimensional array, got {scores.ndim}")
    if scores.size == 0:
        raise ValueError("no calibration scores")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    k = _ceil_index(delta * (scores.size + 1) - offset)
    if k < 1:
        return -math.inf
    if k > scores.size:
        return math.inf
    return float(np.partition(scores, k - 1)[k - 1])


def conformal_q(scores, delta: float) -> float:
    """Upper conformal order statistic of 1-D scores: the ceil(delta*(n+1))-th smallest.

    Indices above ``n`` clamp to ``+inf`` and indices below 1 clamp to
    ``-inf``, preserving the coverage guarantee at extreme levels.
    """
    return _order_stat(scores, delta, 0.0)


def conformal_r(scores, delta: float) -> float:
    """Lower conformal order statistic of 1-D scores: the ceil(delta*(n+1) - 1)-th smallest."""
    return _order_stat(scores, delta, 1.0)


def first_float(below, above, holds) -> np.ndarray:
    """Per entry, the smallest float in (``below``, ``above``] where ``holds`` is true.

    ``holds`` maps floats to a mask that is false at ``below`` and true from some
    float on up to ``above``; bisection over the floats in their integer order finds it.
    """

    def key(y):  # int64 keys in the order of the floats, both zeros at 0; its own inverse
        bits = y.view(np.int64)
        return np.where(bits < 0, -(bits & 0x7FFF_FFFF_FFFF_FFFF), bits)

    a, b = (key(np.asarray(v, dtype=np.float64)) for v in (below, above))
    for _ in range(int((b - a).view(np.uint64).max(initial=0)).bit_length()):  # halving steps
        mid = a + ((b - a).view(np.uint64) >> 1).view(np.int64)  # b - a may wrap as int64
        ok = holds(key(mid).view(np.float64))
        a, b = np.where(ok, a, mid), np.where(ok, mid, b)
    return key(b).view(np.float64)


def coalesce(region: PredictionRegion) -> PredictionRegion:
    """Sort and merge intervals into a disjoint union with identical membership.

    Closed intervals that overlap or touch are merged, so the output
    satisfies ``hi_j < lo_{j+1}`` strictly. Equal ends keep their first value (signed zeros).
    """
    merged = []
    for lo, hi in sorted(region.intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return PredictionRegion(tuple(map(tuple, merged)))


def score_intervals(rows, lo, hi, y):
    """Per-row coverage and size of the closed intervals ``[lo[k], hi[k]]`` of rows ``rows[k]``.

    Row ``i`` is scored against ``y[i]``: ``covered[i]`` is membership in
    any of its intervals, ``sizes[i]`` the sum of their raw ``hi - lo`` in
    the given order, without coalescing (0 for a row with no interval).
    An interval whose endpoints are equal adds 0, at an infinity too, and
    an entry with both endpoints NaN, an empty row's, covers nothing and adds 0.
    """
    rows = np.asarray(rows, dtype=np.intp)
    lo, hi, y = (np.asarray(a, dtype=np.float64) for a in (lo, hi, y))
    y_row = y[rows]
    hit = (lo <= y_row) & (y_row <= hi)
    covered = np.bincount(rows[hit], minlength=y.size) > 0
    # inf - inf would be NaN: equal and NaN endpoints are skipped, leaving their 0
    length = np.subtract(hi, lo, out=np.zeros_like(lo), where=lo < hi)
    # bincount of no entries returns integers, whatever the weights
    sizes = np.bincount(rows, weights=length, minlength=y.size).astype(np.float64)
    return covered, sizes


def region_length(region: PredictionRegion) -> float:
    """Total Lebesgue measure; ``+inf`` if any interval is unbounded."""
    lo, hi = np.reshape(region.intervals, (-1, 2)).T
    return float(score_intervals(np.zeros(lo.size), lo, hi, np.zeros(1))[1][0])


def region_contains(region: PredictionRegion, y: float) -> bool:
    """Closed-interval membership test."""
    lo, hi = np.reshape(region.intervals, (-1, 2)).T
    return bool(score_intervals(np.zeros(lo.size), lo, hi, [y])[0][0])


def _directed_sup(a_lo, a_hi, a_in, b_lo, b_hi, b_in) -> np.ndarray:
    # sup over z in A of d(z, B), row by row. The distance function to a
    # finite union of closed intervals is piecewise linear; restricted to A
    # its maxima occur at A's endpoints or at gap midpoints of B inside A.
    mid = 0.5 * (b_hi[:, :-1] + b_lo[:, 1:])
    inside = (a_lo[:, None, :] <= mid[..., None]) & (mid[..., None] <= a_hi[:, None, :])
    mid_in = b_in[:, 1:] & (inside & a_in[:, None, :]).any(axis=2)
    z = np.concatenate([a_lo, a_hi, mid], axis=1)[..., None]  # (n, C, 1)
    lo, hi = b_lo[:, None, :], b_hi[:, None, :]
    d = np.where((lo <= z) & (z <= hi), 0.0, np.minimum(np.abs(z - lo), np.abs(z - hi)))
    d = np.where(b_in[:, None, :], d, np.inf).min(axis=2, initial=np.inf)  # (n, C)
    return np.where(np.concatenate([a_in, a_in, mid_in], axis=1), d, 0.0).max(axis=1, initial=0.0)


def hausdorff(a: RegionBatch, b: RegionBatch) -> np.ndarray:
    """Exact Hausdorff distance between the regions of two batches, row by row.

    Evaluates the point-to-set distance at interval endpoints and at the
    midpoints between neighbours in a row, which are ordered as
    :class:`RegionBatch` checks; no grid. Touching intervals give the distance
    of their merged form. The distance is undefined, and returned as ``inf``,
    for a row where either region is empty or has an infinite endpoint.
    """
    if len(a) != len(b):
        raise ValueError(f"batch length mismatch: {len(a)} and {len(b)} rows")
    ok = np.ones(len(a), dtype=bool)
    ends = []
    for r in (a, b):
        # infinite intervals and padding become absent zeros: no inf or NaN enters the arithmetic
        keep = np.isfinite(r.lo) & np.isfinite(r.hi)
        ok &= keep.any(axis=1) & (keep | np.isnan(r.lo)).all(axis=1)  # NaN only in the padding
        ends.append((np.where(keep, r.lo, 0.0), np.where(keep, r.hi, 0.0), keep))
    dist = np.maximum(_directed_sup(*ends[0], *ends[1]), _directed_sup(*ends[1], *ends[0]))
    return np.where(ok, dist, np.inf)
