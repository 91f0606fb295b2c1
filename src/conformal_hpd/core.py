"""Shared domain types: datasets, prediction regions, conformal order
statistics, and set-distance utilities.

All types are immutable after construction and safe to share across
parallel replications.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigError",
    "check_alpha",
    "Dataset",
    "SplitPlan",
    "PredictionRegion",
    "RegionBatch",
    "ScoreVector",
    "conformal_q",
    "conformal_r",
    "coalesce",
    "score_intervals",
    "region_length",
    "region_contains",
    "hausdorff",
]


class ConfigError(ValueError):
    """An argument outside its domain: a level, a tag, a fold size or an empty fold."""


def check_alpha(alpha: float) -> None:
    """Raise :class:`ConfigError` unless ``0 < alpha < 1`` (NaN fails too)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")


def _as_readonly(a, dtype=np.float64, ndim=None):
    out = np.array(a, dtype=dtype, copy=True)
    if ndim is not None and out.ndim != ndim:
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
        x = _as_readonly(self.x, ndim=2)
        y = _as_readonly(self.y, ndim=1)
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
        all_idx = np.concatenate([self.idx_train1, self.idx_train2, self.idx_cal])
        if all_idx.size and (all_idx < 0).any():
            raise ValueError("negative fold index")
        if np.unique(all_idx).size != all_idx.size:
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


@dataclass(frozen=True)
class PredictionRegion:
    """Finite union of closed intervals on the response axis.

    Intervals are ``(lo, hi)`` pairs with ``lo <= hi``; endpoints may be
    ``-inf`` / ``+inf`` (clamped order statistics). Construct, then
    :func:`coalesce` before measuring length or membership.
    """

    intervals: tuple = ()

    def __post_init__(self):
        ivals = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivals:
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            if lo > hi:
                raise ValueError(f"interval has lo > hi: ({lo}, {hi})")
        object.__setattr__(self, "intervals", ivals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)


class RegionBatch(Sequence):
    """Prediction regions of n covariate rows as (n, J) ``lo``/``hi`` arrays.

    Row ``i`` is the union of ``[lo[i, j], hi[i, j]]`` for ``j < counts[i]``
    (all ``J`` by default); later entries are padding, and a row may be
    empty. The constructor coalesces every row as :func:`coalesce` does,
    so stored rows are sorted with ``hi[i, j] < lo[i, j + 1]``. Indexing
    and iteration give :class:`PredictionRegion` views of the rows.
    """

    def __init__(self, lo, hi, counts=None):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.ndim != 2 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be (n, J) arrays of the same shape")
        n, width = lo.shape
        counts = np.full(n, width) if counts is None else np.asarray(counts)
        present = np.arange(width) < counts[:, None]
        bad = present & (np.isnan(lo) | np.isnan(hi) | (lo > hi))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            PredictionRegion(((lo[i, j], hi[i, j]),))  # raises as one region does
        # sort each row by (lo, hi), padding last; lexsort is stable, as sorted() is
        order = np.lexsort((hi, lo, ~present), axis=1)
        lo, hi = np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)
        # a merged interval starts where lo exceeds the running max of hi,
        # which keeps its value on ties, as max() does
        start, top = present.copy(), hi.copy()
        for j in range(1, width):
            start[:, j] &= lo[:, j] > top[:, j - 1]
            top[:, j] = np.where(hi[:, j] > top[:, j - 1], hi[:, j], top[:, j - 1])
        end = present.copy()
        end[:, :-1] &= start[:, 1:] | ~present[:, 1:]
        self.counts = start.sum(axis=1)
        self.lo = np.full((n, self.counts.max(initial=0)), np.nan)
        self.hi = self.lo.copy()
        self.lo[self._present()] = lo[start]
        self.hi[self._present()] = top[end]
        for a in (self.lo, self.hi, self.counts):
            a.flags.writeable = False

    def _present(self) -> np.ndarray:
        return np.arange(self.lo.shape[1]) < self.counts[:, None]

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, i) -> PredictionRegion:
        i = range(len(self))[operator.index(i)]
        c = self.counts[i]
        return PredictionRegion(tuple(zip(self.lo[i, :c].tolist(), self.hi[i, :c].tolist())))

    def flat(self):
        """Row index, interval index, lo and hi of every interval, row by row."""
        rows, index = np.nonzero(self._present())
        return rows, index, self.lo[self._present()], self.hi[self._present()]


@dataclass(frozen=True)
class ScoreVector:
    """Calibration nonconformity scores with a cached sorted copy."""

    v: np.ndarray
    sorted_v: np.ndarray = field(init=False)

    def __post_init__(self):
        v = _as_readonly(self.v, ndim=1)
        if v.size and not np.isfinite(v).all():
            raise ValueError("scores must be finite")
        object.__setattr__(self, "v", v)
        srt = np.sort(v, kind="stable")
        srt.flags.writeable = False
        object.__setattr__(self, "sorted_v", srt)

    @property
    def n(self) -> int:
        return self.v.shape[0]


def _order_stat(scores: ScoreVector, k: int) -> float:
    """k-th smallest score (1-indexed), with +/-inf clamping outside 1..n; raises if n is 0."""
    n = scores.n
    if n == 0:
        raise ValueError("no calibration scores")
    if k < 1:
        return -math.inf
    if k > n:
        return math.inf
    return float(scores.sorted_v[k - 1])


def _ceil_index(x: float) -> int:
    # Snap products like 0.95 * (n + 1) that land within one ulp of an
    # integer before applying ceil, so the index matches exact rationals.
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(x))


def conformal_q(scores: ScoreVector, delta: float) -> float:
    """Upper conformal order statistic: the ceil(delta*(n+1))-th smallest score.

    Indices above ``n`` clamp to ``+inf`` and indices below 1 clamp to
    ``-inf``, preserving the coverage guarantee at extreme levels.
    """
    k = _ceil_index(delta * (scores.n + 1))
    return _order_stat(scores, k)


def conformal_r(scores: ScoreVector, delta: float) -> float:
    """Lower conformal order statistic: the ceil(delta*(n+1) - 1)-th smallest score."""
    k = _ceil_index(delta * (scores.n + 1) - 1.0)
    return _order_stat(scores, k)


def _intervals(region: PredictionRegion):
    """The ``lo`` and ``hi`` endpoints of a region's intervals, in its order."""
    return np.reshape(region.intervals, (-1, 2)).T


def coalesce(region: PredictionRegion) -> PredictionRegion:
    """Sort and merge intervals into a disjoint union with identical membership.

    Closed intervals that overlap or touch are merged, so the output
    satisfies ``hi_j < lo_{j+1}`` strictly.
    """
    lo, hi = _intervals(region)
    return RegionBatch(lo[None], hi[None])[0]


def score_intervals(rows, lo, hi, y):
    """Per-row coverage and size of the closed intervals ``[lo[k], hi[k]]`` of rows ``rows[k]``.

    Row ``i`` is scored against ``y[i]``: ``covered[i]`` is membership in
    any of its intervals, ``sizes[i]`` the sum of their raw ``hi - lo`` in
    the given order, without coalescing (0 for a row with no interval).
    An interval whose endpoints are equal adds 0, at an infinity too.
    """
    rows = np.asarray(rows, dtype=np.intp)
    lo, hi, y = (np.asarray(a, dtype=np.float64) for a in (lo, hi, y))
    y_row = y[rows]
    hit = (lo <= y_row) & (y_row <= hi)
    covered = np.bincount(rows[hit], minlength=y.size) > 0
    # inf - inf would be NaN: equal endpoints are skipped, leaving their 0
    length = np.subtract(hi, lo, out=np.zeros_like(lo), where=lo != hi)
    # bincount of no entries returns integers, whatever the weights
    sizes = np.bincount(rows, weights=length, minlength=y.size).astype(np.float64)
    return covered, sizes


def region_length(region: PredictionRegion) -> float:
    """Total Lebesgue measure; ``+inf`` if any interval is unbounded."""
    lo, hi = _intervals(region)
    return float(score_intervals(np.zeros(lo.size), lo, hi, np.zeros(1))[1][0])


def region_contains(region: PredictionRegion, y: float) -> bool:
    """Closed-interval membership test."""
    lo, hi = _intervals(region)
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

    Evaluates the point-to-set distance at interval endpoints and gap
    midpoints only; no grid. The distance is undefined, and returned as
    ``inf``, for a row where either region is empty or has an infinite
    endpoint.
    """
    if len(a) != len(b):
        raise ValueError(f"batch length mismatch: {len(a)} and {len(b)} rows")
    ok = np.ones(len(a), dtype=bool)
    ends = []
    for r in (a, b):
        # infinite intervals and padding become absent zeros: no inf or NaN enters the arithmetic
        present = r._present()
        keep = present & np.isfinite(r.lo) & np.isfinite(r.hi)
        ok &= keep.any(axis=1) & (keep == present).all(axis=1)
        ends.append((np.where(keep, r.lo, 0.0), np.where(keep, r.hi, 0.0), keep))
    dist = np.maximum(_directed_sup(*ends[0], *ends[1]), _directed_sup(*ends[1], *ends[0]))
    return np.where(ok, dist, np.inf)
