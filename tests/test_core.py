import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_hpd.core import (
    Dataset,
    PredictionRegion,
    ScoreVector,
    SplitPlan,
    coalesce,
    conformal_q,
    conformal_r,
    hausdorff,
    region_contains,
    region_length,
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


class TestHausdorff:
    def test_identity(self):
        r = PredictionRegion(((0, 1),))
        assert hausdorff(r, r) == 0.0

    def test_disjoint_pair(self):
        assert hausdorff(PredictionRegion(((0, 1),)), PredictionRegion(((2, 3),))) == 2.0

    def test_matches_grid_oracle(self):
        a = PredictionRegion(((0, 1), (4, 5)))
        b = PredictionRegion(((0, 5),))
        exact = hausdorff(a, b)
        assert exact == pytest.approx(hausdorff_grid(a, b), abs=2e-4)
        assert exact == pytest.approx(1.5, abs=1e-12)

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = coalesce(
                PredictionRegion(
                    tuple(
                        (lo, lo + w)
                        for lo, w in zip(rng.uniform(-5, 5, 3), rng.uniform(0.1, 2, 3))
                    )
                )
            )
            b = coalesce(
                PredictionRegion(
                    tuple(
                        (lo, lo + w)
                        for lo, w in zip(rng.uniform(-5, 5, 3), rng.uniform(0.1, 2, 3))
                    )
                )
            )
            assert hausdorff(a, b) == pytest.approx(hausdorff_grid(a, b), abs=2e-4)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="Hausdorff undefined"):
            hausdorff(PredictionRegion(), PredictionRegion(((0, 1),)))

    def test_infinite_endpoint_raises(self):
        with pytest.raises(ValueError, match="finite"):
            hausdorff(
                PredictionRegion(((-math.inf, 1),)), PredictionRegion(((0, 1),))
            )

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(11)
        regions = []
        for _ in range(12):
            ivals = tuple(
                (lo, lo + w)
                for lo, w in zip(rng.uniform(-5, 5, 2), rng.uniform(0.2, 3, 2))
            )
            regions.append(coalesce(PredictionRegion(ivals)))
        for i in range(0, 12, 3):
            a, b, c = regions[i : i + 3]
            dab, dba = hausdorff(a, b), hausdorff(b, a)
            assert dab == dba
            assert dab >= 0.0
            assert hausdorff(a, c) <= dab + hausdorff(b, c) + 1e-12
        assert hausdorff(regions[0], regions[0]) == 0.0

    def test_zero_iff_equal(self):
        a = coalesce(PredictionRegion(((0, 1), (2, 3))))
        b = coalesce(PredictionRegion(((0, 1), (2, 3.5))))
        assert hausdorff(a, b) > 0.0


class TestDatasetAndSplit:
    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="row mismatch"):
            Dataset(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.nan]]), np.array([1.0]))

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
