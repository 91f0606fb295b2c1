"""Shared domain types: datasets, prediction regions, conformal order
statistics, and set-distance utilities.

All types are immutable after construction and safe to share across
parallel replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "SplitPlan",
    "PredictionRegion",
    "ScoreVector",
    "conformal_q",
    "conformal_r",
    "coalesce",
    "region_length",
    "region_contains",
    "hausdorff",
]


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
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        if x.ndim != 2:
            raise ValueError("covariate matrix must be 2-dimensional")
        y = _as_readonly(self.y, ndim=1)
        x = _as_readonly(x, ndim=2)
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
                raise ValueError(f"{name} contains index >= n={n}")

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

    @property
    def is_empty(self) -> bool:
        return not self.intervals


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
    """k-th smallest score (1-indexed), with +/-inf clamping outside 1..n."""
    n = scores.n
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
    if scores.n == 0:
        raise ValueError("no calibration scores")
    k = _ceil_index(delta * (scores.n + 1))
    return _order_stat(scores, k)


def conformal_r(scores: ScoreVector, delta: float) -> float:
    """Lower conformal order statistic: the ceil(delta*(n+1) - 1)-th smallest score."""
    if scores.n == 0:
        raise ValueError("no calibration scores")
    k = _ceil_index(delta * (scores.n + 1) - 1.0)
    return _order_stat(scores, k)


def coalesce(region: PredictionRegion) -> PredictionRegion:
    """Sort and merge intervals into a disjoint union with identical membership.

    Closed intervals that overlap or touch are merged, so the output
    satisfies ``hi_j < lo_{j+1}`` strictly.
    """
    if region.is_empty:
        return region
    ivals = sorted(region.intervals)
    merged = [list(ivals[0])]
    for lo, hi in ivals[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return PredictionRegion(tuple((lo, hi) for lo, hi in merged))


def region_length(region: PredictionRegion) -> float:
    """Total Lebesgue measure; ``+inf`` if any interval is unbounded."""
    total = 0.0
    for lo, hi in region.intervals:
        total += hi - lo
    return total


def region_contains(region: PredictionRegion, y: float) -> bool:
    """Closed-interval membership test."""
    return any(lo <= y <= hi for lo, hi in region.intervals)


def _point_to_region(z: float, intervals) -> float:
    best = math.inf
    for lo, hi in intervals:
        if lo <= z <= hi:
            return 0.0
        best = min(best, abs(z - lo), abs(z - hi))
    return best


def _directed_sup(a: PredictionRegion, b: PredictionRegion) -> float:
    # sup over z in A of d(z, B). The distance function to a finite union
    # of closed intervals is piecewise linear; restricted to A its maxima
    # occur at A's endpoints or at gap midpoints of B that lie inside A.
    candidates = [e for lo, hi in a.intervals for e in (lo, hi)]
    b_ivals = b.intervals
    for (_, hi_prev), (lo_next, _) in zip(b_ivals[:-1], b_ivals[1:]):
        mid = 0.5 * (hi_prev + lo_next)
        if region_contains(a, mid):
            candidates.append(mid)
    return max(_point_to_region(z, b_ivals) for z in candidates)


def hausdorff(a: PredictionRegion, b: PredictionRegion) -> float:
    """Exact Hausdorff distance between two interval unions.

    Evaluates the point-to-set distance at interval endpoints and gap
    midpoints only; no grid. Both regions must be nonempty with finite
    endpoints.
    """
    a = coalesce(a)
    b = coalesce(b)
    if a.is_empty or b.is_empty:
        raise ValueError("Hausdorff undefined for empty set")
    for lo, hi in (*a.intervals, *b.intervals):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("Hausdorff requires finite endpoints")
    return max(_directed_sup(a, b), _directed_sup(b, a))
