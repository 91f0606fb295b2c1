import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_hpd.core import (
    Dataset,
    PredictionRegion,
    RegionBatch,
    ScoreVector,
    SplitPlan,
    coalesce,
    conformal_q,
    conformal_r,
    hausdorff,
    region_contains,
    region_length,
    score_intervals,
)

V9 = ScoreVector(np.arange(1.0, 10.0))
V99 = ScoreVector(np.arange(1.0, 100.0))


class TestOrderStatistics:
    def test_q_examples(self):
        assert conformal_q(V9, 0.9) == 9.0
        assert conformal_q(V9, 0.5) == 5.0
        assert conformal_q(V9, 0.99) == math.inf

    def test_r_examples(self):
        assert conformal_r(V9, 0.3) == 2.0
        assert conformal_r(V99, 0.05) == 4.0
        assert conformal_r(V9, 0.05) == -math.inf

    def test_empty_scores_raise(self):
        empty = ScoreVector(np.array([]))
        with pytest.raises(ValueError, match="no calibration scores"):
            conformal_q(empty, 0.5)
        with pytest.raises(ValueError, match="no calibration scores"):
            conformal_r(empty, 0.5)

    def test_unsorted_input_uses_order_statistics(self):
        v = ScoreVector(np.array([5.0, 1.0, 3.0, 2.0, 4.0]))
        assert conformal_q(v, 0.5) == 3.0

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_q_monotone_and_r_below_q(self, vals, d1, d2):
        v = ScoreVector(np.array(vals))
        lo, hi = min(d1, d2), max(d1, d2)
        assert conformal_q(v, lo) <= conformal_q(v, hi)
        assert conformal_r(v, d1) <= conformal_q(v, d1)

    def test_float_index_snapping(self):
        # 0.05 * 100 and friends must hit the exact rational index even
        # when the float product drifts by an ulp.
        for n, delta, expect in [(99, 0.95, 95.0), (19, 0.95, 19.0)]:
            v = ScoreVector(np.arange(1.0, n + 1.0))
            assert conformal_q(v, delta) == expect


class TestRegions:
    def test_coalesce_examples(self):
        assert coalesce(PredictionRegion(((0, 2), (1, 3)))).intervals == ((0.0, 3.0),)
        assert coalesce(PredictionRegion(((0, 1), (2, 3)))).intervals == (
            (0.0, 1.0),
            (2.0, 3.0),
        )
        assert coalesce(
            PredictionRegion(((5, 6), (0, 1), (0.5, 2)))
        ).intervals == ((0.0, 2.0), (5.0, 6.0))

    def test_coalesce_merges_touching_closed_intervals(self):
        assert coalesce(PredictionRegion(((0, 1), (1, 2)))).intervals == ((0.0, 2.0),)

    def test_region_length_examples(self):
        assert region_length(PredictionRegion(((0, 1), (2, 3)))) == 2.0
        assert region_length(PredictionRegion()) == 0.0
        assert region_length(PredictionRegion(((-math.inf, 1),))) == math.inf

    def test_region_contains_examples(self):
        r = PredictionRegion(((0, 1),))
        assert region_contains(r, 0.5)
        assert region_contains(r, 1.0)
        assert not region_contains(PredictionRegion(((0, 1), (2, 3))), 1.5)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="lo > hi"):
            PredictionRegion(((2, 1),))
        with pytest.raises(ValueError, match="NaN"):
            PredictionRegion(((math.nan, 1),))

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(0, 50)).map(
                lambda t: (t[0], t[0] + t[1])
            ),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_coalesce_idempotent_and_length_shrinks(self, ivals):
        raw = PredictionRegion(tuple(ivals))
        once = coalesce(raw)
        assert coalesce(once).intervals == once.intervals
        assert region_length(once) <= sum(hi - lo for lo, hi in ivals) + 1e-9
        for (_, hi_prev), (lo_next, _) in zip(once.intervals[:-1], once.intervals[1:]):
            assert hi_prev < lo_next

    def test_coalesce_preserves_membership(self):
        rng = np.random.default_rng(42)
        lows = rng.uniform(-10, 10, size=8)
        raw = PredictionRegion(tuple((lo, lo + w) for lo, w in zip(lows, rng.uniform(0, 5, 8))))
        merged = coalesce(raw)
        for y in rng.uniform(-12, 18, size=1000):
            assert region_contains(raw, y) == region_contains(merged, y)


def coalesce_reference(region: PredictionRegion) -> PredictionRegion:
    """The per-row merge loop that ``RegionBatch`` vectorises."""
    if not region.intervals:
        return region
    ivals = sorted(region.intervals)
    merged = [list(ivals[0])]
    for lo, hi in ivals[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return PredictionRegion(tuple((lo, hi) for lo, hi in merged))


# few distinct endpoints, so draws touch, nest and share lo; signed zeros
# and infinities included
ENDPOINTS = st.sampled_from([-math.inf, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf])
INTERVAL = st.one_of(
    st.tuples(ENDPOINTS, ENDPOINTS),
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
).map(lambda t: (min(t), max(t)))


@st.composite
def interval_rows(draw):
    width = draw(st.integers(1, 5))
    rows = draw(
        st.lists(st.lists(INTERVAL, min_size=0, max_size=width), min_size=1, max_size=6)
    )
    return width, rows


class TestRegionBatch:
    @given(interval_rows())
    @settings(max_examples=400, deadline=None)
    def test_rows_equal_the_per_row_merge(self, drawn):
        width, rows = drawn
        lo = np.full((len(rows), width), 7.0)  # padding past each count
        hi = np.full((len(rows), width), -7.0)
        for i, row in enumerate(rows):
            for j, (a, b) in enumerate(row):
                lo[i, j], hi[i, j] = a, b
        batch = RegionBatch(lo, hi, [len(row) for row in rows])
        assert len(batch) == len(rows)
        for region, row in zip(batch, rows):
            expected = coalesce_reference(PredictionRegion(tuple(row)))
            assert repr(region.intervals) == repr(expected.intervals)

    def test_sequence_views(self):
        batch = RegionBatch([[0.0, 5.0], [2.0, 0.0]], [[1.0, 6.0], [3.0, 1.0]], [2, 0])
        assert batch[-2].intervals == ((0.0, 1.0), (5.0, 6.0))
        assert batch[1].intervals == ()
        with pytest.raises(IndexError):
            batch[2]
        rows, index, lo, hi = batch.flat()
        assert rows.tolist() == [0, 0] and index.tolist() == [0, 1]
        assert (lo.tolist(), hi.tolist()) == ([0.0, 5.0], [1.0, 6.0])

    @pytest.mark.parametrize(
        "lo, hi, match", [(2.0, 1.0, "lo > hi"), (math.nan, 1.0, "NaN"), (0.0, math.nan, "NaN")]
    )
    def test_invalid_interval_rejected_like_a_single_region(self, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            RegionBatch([[0.0, lo]], [[1.0, hi]])
        # entries past a row's count are padding and never checked
        assert RegionBatch([[0.0, lo]], [[1.0, hi]], [1])[0].intervals == ((0.0, 1.0),)


def length_reference(intervals) -> float:
    """The per-region loop that ``score_intervals`` vectorises.

    An interval with equal endpoints adds 0, so ``(inf, inf)`` is no NaN.
    """
    total = 0.0
    for lo, hi in intervals:
        total += hi - lo if lo != hi else 0.0
    return total


def contains_reference(intervals, y) -> bool:
    return any(lo <= y <= hi for lo, hi in intervals)


@st.composite
def scored_rows(draw):
    """Intervals tagged with their row, in any row order, and one ``y`` per row."""
    n = draw(st.integers(1, 6))
    flat = draw(st.lists(st.tuples(st.integers(0, n - 1), INTERVAL), max_size=15))
    ys = draw(st.lists(st.one_of(ENDPOINTS, st.floats(-12, 12)), min_size=n, max_size=n))
    return flat, ys


class TestScoreIntervals:
    @given(scored_rows())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_per_region_loops(self, drawn):
        flat, ys = drawn
        rows = np.array([r for r, _ in flat], dtype=np.intp)
        lo = np.array([a for _, (a, _) in flat])
        hi = np.array([b for _, (_, b) in flat])
        covered, sizes = score_intervals(rows, lo, hi, np.array(ys))
        for i, y in enumerate(ys):
            own = [ival for r, ival in flat if r == i]  # unsorted, overlapping, maybe none
            region = PredictionRegion(tuple(own))
            assert repr(sizes[i].item()) == repr(length_reference(own))
            assert covered[i].item() is contains_reference(own, y)
            assert repr(region_length(region)) == repr(length_reference(own))
            assert region_contains(region, y) is contains_reference(own, y)


def hausdorff_grid(a: PredictionRegion, b: PredictionRegion, step=1e-4) -> float:
    """Brute-force oracle: dense sampling of both regions."""

    def pts(region):
        return np.concatenate(
            [np.arange(lo, hi + step / 2, step) for lo, hi in region.intervals]
        )

    def dist(zs, region):
        d = np.full(zs.shape, np.inf)
        for lo, hi in region.intervals:
            inside = (zs >= lo) & (zs <= hi)
            d = np.minimum(d, np.minimum(np.abs(zs - lo), np.abs(zs - hi)))
            d[inside] = 0.0
        return d

    pa, pb = pts(a), pts(b)
    return max(dist(pa, b).max(), dist(pb, a).max())


def batch(*regions: PredictionRegion) -> RegionBatch:
    """The regions as the rows of one batch, padded to the widest."""
    width = max((len(r) for r in regions), default=0)
    lo, hi = np.zeros((len(regions), width)), np.zeros((len(regions), width))
    for i, region in enumerate(regions):
        for j, (a, b) in enumerate(region.intervals):
            lo[i, j], hi[i, j] = a, b
    return RegionBatch(lo, hi, [len(r) for r in regions])


def random_regions(rng, count, k, width_range):
    regions = []
    for _ in range(count):
        lows, widths = rng.uniform(-5, 5, k), rng.uniform(*width_range, k)
        regions.append(PredictionRegion(tuple((lo, lo + w) for lo, w in zip(lows, widths))))
    return regions


class TestHausdorff:
    def test_identity(self):
        r = batch(PredictionRegion(((0, 1),)))
        assert hausdorff(r, r)[0] == 0.0

    def test_disjoint_pair(self):
        d = hausdorff(batch(PredictionRegion(((0, 1),))), batch(PredictionRegion(((2, 3),))))
        assert d[0] == 2.0

    def test_matches_grid_oracle(self):
        a = PredictionRegion(((0, 1), (4, 5)))
        b = PredictionRegion(((0, 5),))
        exact = hausdorff(batch(a), batch(b))[0]
        assert exact == pytest.approx(hausdorff_grid(a, b), abs=2e-4)
        assert exact == pytest.approx(1.5, abs=1e-12)

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(7)
        a = batch(*random_regions(rng, 20, 3, (0.1, 2)))
        b = batch(*random_regions(rng, 20, 3, (0.1, 2)))
        for d, ra, rb in zip(hausdorff(a, b), a, b):
            assert d == pytest.approx(hausdorff_grid(ra, rb), abs=2e-4)

    def test_empty_row_is_inf(self):
        d = hausdorff(batch(PredictionRegion()), batch(PredictionRegion(((0, 1),))))
        assert d[0] == math.inf

    def test_infinite_endpoint_row_is_inf(self):
        d = hausdorff(
            batch(PredictionRegion(((-math.inf, 1),)), PredictionRegion(((0, 1),))),
            batch(PredictionRegion(((0, 1),)), PredictionRegion(((0, 1),))),
        )
        assert d.tolist() == [math.inf, 0.0]

    def test_length_mismatch_raises(self):
        r = PredictionRegion(((0, 1),))
        with pytest.raises(ValueError, match="length mismatch"):
            hausdorff(batch(r), batch(r, r))

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(11)
        regions = [coalesce(r) for r in random_regions(rng, 12, 2, (0.2, 3))]
        a, b, c = (batch(*regions[i::3]) for i in range(3))
        dab, dba = hausdorff(a, b), hausdorff(b, a)
        assert (dab == dba).all()
        assert (dab >= 0.0).all()
        assert (hausdorff(a, c) <= dab + hausdorff(b, c) + 1e-12).all()
        assert hausdorff(a, a).tolist() == [0.0] * 4

    def test_zero_iff_equal(self):
        a = coalesce(PredictionRegion(((0, 1), (2, 3))))
        b = coalesce(PredictionRegion(((0, 1), (2, 3.5))))
        assert hausdorff(batch(a), batch(b))[0] > 0.0


@st.composite
def region_batches(draw, count=3):
    """``count`` batches of the same rows: 0-4 intervals each, some endpoints infinite."""
    n = draw(st.integers(1, 4))
    batches = []
    for _ in range(count):
        rows = []
        for _ in range(n):
            ivals = []
            for _ in range(draw(st.integers(0, 4))):
                lo, w = draw(st.floats(-5, 5)), draw(st.floats(0, 3))
                end = draw(st.sampled_from(["finite"] * 8 + ["-inf", "inf"]))
                ivals.append(
                    (-math.inf if end == "-inf" else lo, math.inf if end == "inf" else lo + w)
                )
            rows.append(PredictionRegion(tuple(ivals)))
        batches.append(batch(*rows))
    return batches


def hausdorff_reference(a: PredictionRegion, b: PredictionRegion) -> float:
    """The per-row loop that ``hausdorff`` vectorises, for two defined rows."""

    def point_to_region(z, intervals):
        best = math.inf
        for lo, hi in intervals:
            if lo <= z <= hi:
                return 0.0
            best = min(best, abs(z - lo), abs(z - hi))
        return best

    def directed_sup(a, b):
        candidates = [e for lo, hi in a.intervals for e in (lo, hi)]
        for (_, hi_prev), (lo_next, _) in zip(b.intervals[:-1], b.intervals[1:]):
            mid = 0.5 * (hi_prev + lo_next)
            if region_contains(a, mid):
                candidates.append(mid)
        return max(point_to_region(z, b.intervals) for z in candidates)

    return max(directed_sup(a, b), directed_sup(b, a))


def defined_rows(r: RegionBatch) -> np.ndarray:
    """Rows with at least one interval and only finite endpoints."""
    return np.array([bool(reg.intervals) and np.isfinite(reg.intervals).all() for reg in r])


class TestHausdorffBatch:
    @given(region_batches())
    @settings(max_examples=150, deadline=None)
    def test_exact_rule_and_metric_properties(self, batches):
        a, b, c = batches
        dab, dbc, dac = hausdorff(a, b), hausdorff(b, c), hausdorff(a, c)
        defined = defined_rows(a) & defined_rows(b)
        assert np.isinf(dab).tolist() == (~defined).tolist()
        for i in np.flatnonzero(defined):
            assert repr(dab[i].item()) == repr(hausdorff_reference(a[i], b[i]))
            assert dab[i] == pytest.approx(hausdorff_grid(a[i], b[i]), abs=2e-4)
        assert dab.tolist() == hausdorff(b, a).tolist()
        same = hausdorff(a, a)
        assert same[defined_rows(a)].tolist() == [0.0] * int(defined_rows(a).sum())
        assert (dac <= dab + dbc + 1e-12).all()


class TestDatasetAndSplit:
    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="row mismatch"):
            Dataset(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.nan]]), np.array([1.0]))

    def test_dataset_rejects_one_dimensional_covariates(self):
        # a 1-D x is a shape error, not a one-row matrix with n columns
        with pytest.raises(ValueError, match="2-dimensional"):
            Dataset(np.arange(5.0), np.zeros(5))

    def test_dataset_immutable(self):
        ds = Dataset(np.zeros((2, 1)), np.ones(2))
        with pytest.raises(ValueError):
            ds.y[0] = 3.0

    def test_subset(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0, 3.0]))
        sub = ds.subset([2, 0])
        assert sub.y.tolist() == [3.0, 1.0]

    def test_split_plan_disjointness(self):
        with pytest.raises(ValueError, match="disjoint"):
            SplitPlan(idx_train1=[0, 1], idx_train2=[1], idx_cal=[2])

    def test_split_plan_random(self):
        rng = np.random.default_rng(0)
        plan = SplitPlan.sequential(rng.permutation(100), 25, 25)
        assert plan.idx_train1.size == 25
        assert plan.idx_train2.size == 25
        assert plan.idx_cal.size == 50
        plan.check_against(100)
        with pytest.raises(ValueError, match="index >= n"):
            plan.check_against(40)

    def test_split_plan_empty_train2_ok(self):
        SplitPlan(idx_train1=[0, 1], idx_train2=[], idx_cal=[2, 3])
