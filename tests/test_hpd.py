import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from conformal_hpd import hpd
from conformal_hpd.conformal import fit_kde_hpd
from conformal_hpd.core import (
    Dataset,
    SplitPlan,
    conformal_q,
    conformal_r,
    score_intervals,
)
from conformal_hpd.hpd import (
    MASS_TOL,
    extract_intervals,
    find_cutoff,
    interpolated_level_set,
    quantile_pairs,
    smallest_mass_region,
    superlevel_intervals,
)
from conformal_hpd.kde import KdeModel, fit_kde, kde_cdf, kde_eval

Z90 = norm.ppf(0.95)  # 1.6449


def mixture_cdf(z):
    return 0.5 * norm.cdf(z + 6.0) + 0.5 * norm.cdf(z - 6.0)


def kde_cutoff(model, alpha):
    return find_cutoff(
        lambda z: kde_eval(model, z),
        lambda z: kde_cdf(model, z),
        model.grid,
        model.grid_density,
        alpha,
    )


def kept_mass(model, lam):
    """Exact mass of every superlevel interval at ``lam``."""
    intervals = superlevel_intervals(
        lambda z: kde_eval(model, z), model.grid, model.grid_density, lam
    )
    return (1.0 - quantile_pairs(model, intervals).sum(axis=1)).sum()


@pytest.fixture(scope="module")
def normal_model():
    rng = np.random.default_rng(123)
    return fit_kde(rng.standard_normal(10_000))


@pytest.fixture(scope="module")
def bimodal_model():
    rng = np.random.default_rng(456)
    comp = rng.random(10_000) < 0.5
    draws = rng.normal(np.where(comp, -6.0, 6.0), 1.0)
    return fit_kde(draws)


class TestFindCutoff:
    def test_normal_cutoff(self, normal_model):
        lam = kde_cutoff(normal_model, 0.10)
        assert lam == pytest.approx(norm.pdf(Z90), abs=0.01)

    def test_alpha_to_zero_limit(self, normal_model):
        assert kde_cutoff(normal_model, 1e-6) < 1e-3

    def test_mixture_cutoff(self, bimodal_model):
        lam = kde_cutoff(bimodal_model, 0.10)
        assert lam == pytest.approx(0.5 * norm.pdf(Z90), abs=0.008)

    def test_kept_mass_monotone(self, bimodal_model):
        lams = np.linspace(0, bimodal_model.grid_density.max(), 25)
        masses = [kept_mass(bimodal_model, lam) for lam in lams]
        assert masses[0] == 1.0  # the whole line
        assert (np.diff(masses) <= 0).all()

    @pytest.mark.parametrize("fixture", ["normal_model", "bimodal_model"])
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5])
    def test_mass_at_the_cutoff_is_one_minus_alpha(self, fixture, alpha, request):
        model = request.getfixturevalue(fixture)
        mass = kept_mass(model, kde_cutoff(model, alpha))
        assert 1.0 - alpha <= mass <= 1.0 - alpha + MASS_TOL

    def test_alpha_validation(self, normal_model):
        with pytest.raises(ValueError, match="alpha"):
            kde_cutoff(normal_model, 0.0)

    def test_alpha_below_the_mass_outside_the_grid_gives_the_whole_line(self):
        # one point: the grid spans +-4h and leaves 2 * Phi(-4) = 6.3e-5 outside
        model = fit_kde([0.0])
        assert kde_cutoff(model, 1e-5) == 0.0
        res = smallest_mass_region(model, 1e-5)
        assert res.intervals == ((-np.inf, np.inf),)
        assert res.pairs == ((0.0, 0.0),)

    def test_component_no_grid_point_sees_gives_the_whole_line(self):
        # half the mass in a spike between two grid points, both far in its tails
        pdf = lambda z: 0.5 * norm.pdf(z, 0.0, 0.1) + 0.5 * norm.pdf(z, 7.5, 0.01)
        cdf = lambda z: 0.5 * norm.cdf(z, 0.0, 0.1) + 0.5 * norm.cdf(z, 7.5, 0.01)
        grid = np.linspace(-10.0, 10.0, 21)
        assert pdf(grid[17:19]).max() == 0.0  # the spike's neighbours, 7 and 8, see nothing
        assert find_cutoff(pdf, cdf, grid, pdf(grid), 0.1) == 0.0
        assert find_cutoff(pdf, cdf, grid, pdf(grid), 0.6) > 0.0


class TestExtractIntervals:
    def test_normal_single_interval(self, normal_model):
        ivals = extract_intervals(normal_model, 0.10314)
        assert len(ivals) == 1
        lo, hi = ivals[0]
        assert lo == pytest.approx(-Z90, abs=0.05)
        assert hi == pytest.approx(Z90, abs=0.05)

    def test_bimodal_two_intervals(self, bimodal_model):
        lam = kde_cutoff(bimodal_model, 0.10)
        ivals = extract_intervals(bimodal_model, lam)
        assert len(ivals) == 2
        (l1, u1), (l2, u2) = ivals
        assert l1 == pytest.approx(-6 - Z90, abs=0.2)
        assert u1 == pytest.approx(-6 + Z90, abs=0.2)
        assert l2 == pytest.approx(6 - Z90, abs=0.2)
        assert u2 == pytest.approx(6 + Z90, abs=0.2)
        total = (u1 - l1) + (u2 - l2)
        assert total == pytest.approx(4 * Z90, abs=0.3)

    def test_zero_cutoff_returns_full_span(self, normal_model):
        # the superlevel set of a positive density at 0 is the whole line
        ivals = extract_intervals(normal_model, 0.0)
        assert ivals.tolist() == [[-np.inf, np.inf]]

    def test_cutoff_above_max_raises(self, normal_model):
        lam = float(normal_model.grid_density.max()) + 1e-6
        with pytest.raises(ValueError, match="empty HPD set"):
            extract_intervals(normal_model, lam)

    def test_unimodal_gives_one_interval_for_any_cutoff(self):
        # premise: a single local maximum on the grid (moderate n, wide h)
        rng = np.random.default_rng(5)
        model = KdeModel(rng.standard_normal(200), 0.6)
        dens = model.grid_density
        interior_peaks = np.flatnonzero(
            (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
        )
        assert interior_peaks.size == 1
        top = dens.max()
        for lam in np.linspace(0.0, top * 0.98, 12):
            assert len(extract_intervals(model, lam)) == 1

    def test_endpoints_sit_on_the_cutoff(self, bimodal_model):
        from conformal_hpd.kde import kde_eval

        lam = kde_cutoff(bimodal_model, 0.10)
        for lo, hi in extract_intervals(bimodal_model, lam):
            assert kde_eval(bimodal_model, np.array([lo]))[0] == pytest.approx(lam, rel=1e-3)
            assert kde_eval(bimodal_model, np.array([hi]))[0] == pytest.approx(lam, rel=1e-3)


class TestSuperlevelIntervals:
    @pytest.mark.parametrize("points", [20, 40])
    def test_interior_crossings_match_normal_root(self, points):
        # coarse grids: each crossing starts up to 0.6 from the root
        grid = np.linspace(-6.0, 6.0, points)
        lam = 0.1
        root = np.sqrt(-2.0 * np.log(lam * np.sqrt(2.0 * np.pi)))
        (lo, hi), = superlevel_intervals(norm.pdf, grid, norm.pdf(grid), lam)
        assert abs(lo + root) <= 1e-12
        assert abs(hi - root) <= 1e-12

    def test_same_cutoff_gives_the_same_ends(self, bimodal_model):
        density = lambda z: kde_eval(bimodal_model, z)
        grid, values = bimodal_model.grid, bimodal_model.grid_density
        first = superlevel_intervals(density, grid, values, 0.05)
        np.testing.assert_array_equal(first, superlevel_intervals(density, grid, values, 0.05))

    def test_runs_touching_the_grid_ends_stay_on_the_grid(self):
        lam = 0.1
        root = np.sqrt(-2.0 * np.log(lam * np.sqrt(2.0 * np.pi)))
        right = np.linspace(0.5, 3.0, 101)
        (lo, hi), = superlevel_intervals(norm.pdf, right, norm.pdf(right), lam)
        assert lo == right[0]
        assert hi == pytest.approx(root, abs=1e-12)
        left = -right[::-1]
        (lo, hi), = superlevel_intervals(norm.pdf, left, norm.pdf(left), lam)
        assert lo == pytest.approx(-root, abs=1e-12)
        assert hi == left[-1]
        assert superlevel_intervals(norm.pdf, right, norm.pdf(right), 0.0).tolist() == [
            [-np.inf, np.inf]
        ]

    def test_empty_when_nothing_exceeds_the_cutoff(self):
        grid = np.linspace(-3.0, 3.0, 61)
        assert superlevel_intervals(norm.pdf, grid, norm.pdf(grid), 1.0).shape == (0, 2)


@st.composite
def interpolant_cases(draw):
    """A non-negative function on a grid and a level: strictly increasing grid
    points with uneven steps, values with runs of zeros (and of ties when
    rounded), and a level drawn freely or equal to a grid value."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 30))
    grid = np.cumsum(rng.uniform(0.01, 2.0, size)) + rng.uniform(-10.0, 10.0)
    values = np.maximum(rng.normal(0.5, 1.0, size), 0.0)
    if draw(st.booleans()):
        values = np.round(values, 1)
    positive = values[values > 0].tolist() or [1.0]
    level = draw(st.one_of(st.floats(1e-3, 3.0), st.sampled_from(positive)))
    return grid, values, level


def runs_at_or_above(values, level):
    """First and last index of each run of grid values at or above ``level``."""
    above = np.concatenate(([False], values >= level, [False]))
    return np.flatnonzero(above[1:] & ~above[:-1]), np.flatnonzero(~above[1:] & above[:-1]) - 1


class TestInterpolatedLevelSet:
    @given(case=interpolant_cases())
    @settings(max_examples=200, deadline=None)
    def test_dense_points_are_inside_exactly_where_the_interpolant_reaches_the_level(self, case):
        grid, values, level = case
        ivals = interpolated_level_set(grid, values, level)
        s = np.concatenate((
            np.linspace(grid[0] - 1.0, grid[-1] + 1.0, 4001), grid, (grid[1:] + grid[:-1]) / 2.0
        ))
        inside = ((ivals[:, 0] <= s[:, None]) & (s[:, None] <= ivals[:, 1])).any(axis=1)
        expected = np.interp(s, grid, values, 0.0, 0.0) >= level
        # a point within rounding of a crossing may fall on either side
        near = (np.abs(s[:, None] - ivals.ravel()) <= 1e-9 * np.abs(grid).max()).any(axis=1)
        np.testing.assert_array_equal(inside[~near], expected[~near])

    @given(case=interpolant_cases())
    @settings(max_examples=200, deadline=None)
    def test_each_end_lies_in_its_bracketing_cell(self, case):
        grid, values, level = case
        ivals = interpolated_level_set(grid, values, level)
        starts, stops = runs_at_or_above(values, level)
        assert ivals.shape == (starts.size, 2)
        last = grid.size - 1
        for (lo, hi), a, b in zip(ivals, starts, stops):
            if a == 0:
                assert lo == grid[0]
            else:
                assert grid[a - 1] <= lo <= grid[a]
                assert np.interp(lo, grid, values) == pytest.approx(level, rel=1e-9)
            if b == last:
                assert hi == grid[-1]
            else:
                assert grid[b] <= hi <= grid[b + 1]
                assert np.interp(hi, grid, values) == pytest.approx(level, rel=1e-9)

    @given(case=interpolant_cases())
    @settings(max_examples=200, deadline=None)
    def test_inner_ends_are_the_outermost_floats_at_the_level(self, case):
        grid, values, level = case
        ivals = interpolated_level_set(grid, values, level)
        ends = ivals.ravel()
        inner = (ends != grid[0]) & (ends != grid[-1])
        outward = np.where(np.arange(ends.size) % 2 == 0, -np.inf, np.inf)[inner]
        f = lambda s: np.interp(s, grid, values, 0.0, 0.0)  # noqa: E731
        assert (f(ends[inner]) >= level).all()
        assert (f(np.nextafter(ends[inner], outward)) < level).all()

    def test_runs_touching_the_grid_ends_stay_on_them(self):
        grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = np.array([2.0, 1.0, 0.0, 1.0, 2.0])
        # np.interp gives 1.5 one ulp past 0.5 too, so the run ends there
        np.testing.assert_array_equal(
            interpolated_level_set(grid, values, 1.5),
            [[0.0, np.nextafter(0.5, 1.0)], [3.5, 4.0]],
        )

    @pytest.mark.parametrize("level", [0.0, -0.5, -math.inf])
    def test_level_at_or_below_zero_gives_the_whole_line(self, level):
        grid = np.linspace(-1.0, 1.0, 5)
        values = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        np.testing.assert_array_equal(
            interpolated_level_set(grid, values, level), [[-math.inf, math.inf]]
        )

    @pytest.mark.parametrize("level", [np.nextafter(2.0, math.inf), 5.0, math.inf, math.nan])
    def test_level_above_every_value_gives_no_interval(self, level):
        grid = np.linspace(-1.0, 1.0, 5)
        values = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        assert interpolated_level_set(grid, values, level).shape == (0, 2)


class TestQuantilePairs:
    def test_normal_symmetric_pair(self, normal_model):
        pairs = quantile_pairs(normal_model, [(-Z90, Z90)])
        assert pairs[0][0] == pytest.approx(0.05, abs=0.01)
        assert pairs[0][1] == pytest.approx(0.05, abs=0.01)

    def test_bimodal_pairs_match_mixture_oracle(self, bimodal_model):
        lam = kde_cutoff(bimodal_model, 0.10)
        ivals = extract_intervals(bimodal_model, lam)
        pairs = quantile_pairs(bimodal_model, ivals)
        # oracle: tail masses of the true mixture at the extracted endpoints
        for (lo, hi), (a_j, b_j) in zip(ivals, pairs):
            assert a_j == pytest.approx(mixture_cdf(lo), abs=0.01)
            assert b_j == pytest.approx(1.0 - mixture_cdf(hi), abs=0.01)
        # analytic values at the ideal endpoints -6 +/- z90, 6 +/- z90
        assert pairs[0][0] == pytest.approx(0.025, abs=0.02)
        assert pairs[0][1] == pytest.approx(0.525, abs=0.02)
        assert pairs[1][0] == pytest.approx(0.525, abs=0.02)
        assert pairs[1][1] == pytest.approx(0.025, abs=0.02)

    def test_full_grid_interval_has_vanishing_tails(self, normal_model):
        pairs = quantile_pairs(
            normal_model, [(normal_model.grid[0], normal_model.grid[-1])]
        )
        assert pairs[0][0] == pytest.approx(0.0, abs=1e-3)
        assert pairs[0][1] == pytest.approx(0.0, abs=1e-3)


class TestSmallestMassRegion:
    def test_mass_accounting(self, bimodal_model):
        res = smallest_mass_region(bimodal_model, 0.10)
        covered = sum(
            kde_cdf(bimodal_model, np.array([hi]))[0] - kde_cdf(bimodal_model, np.array([lo]))[0]
            for lo, hi in res.intervals
        )
        assert covered == pytest.approx(0.90, abs=0.01)

    def test_tail_budget_sums_to_alpha(self, bimodal_model):
        res = smallest_mass_region(bimodal_model, 0.10)
        gaps = 0.0
        for (_, hi_prev), (lo_next, _) in zip(res.intervals[:-1], res.intervals[1:]):
            gaps += (
                kde_cdf(bimodal_model, np.array([lo_next]))[0]
                - kde_cdf(bimodal_model, np.array([hi_prev]))[0]
            )
        total_miss = res.pairs[0][0] + res.pairs[-1][1] + gaps
        assert total_miss == pytest.approx(0.10, abs=0.01)

    def test_reconstruction_links_to_order_statistics(self, normal_model):
        res = smallest_mass_region(normal_model, 0.10)
        scores = normal_model.points
        (lo, hi), (a1, b1) = res.intervals[0], res.pairs[0]
        eta = conformal_r(scores, a1)
        gamma = conformal_q(scores, 1.0 - b1)
        assert eta == pytest.approx(lo, abs=0.12)
        assert gamma == pytest.approx(hi, abs=0.12)

    def test_sliver_suppression(self):
        # one dominant mode plus three stray points far out: their density
        # stays below the cutoff, so the region keeps away from them
        rng = np.random.default_rng(99)
        pts = np.concatenate([rng.standard_normal(2000), [40.0, 40.01, 40.02]])
        model = KdeModel(pts, 0.15)
        res = smallest_mass_region(model, 0.10)
        assert all(hi < 20 for _, hi in res.intervals)

    @pytest.mark.parametrize("fixture", ["normal_model", "bimodal_model"])
    def test_one_cdf_call_per_region(self, fixture, request, monkeypatch):
        # every candidate region, the search's and the final one, costs one
        # vectorised CDF call over all its ends
        model = request.getfixturevalue(fixture)
        regions, calls = [], []

        def counting_regions(*args):
            regions.append(superlevel_intervals(*args))
            return regions[-1]

        def counting_cdf(m, z):
            calls.append(np.shape(z))
            return kde_cdf(m, z)

        monkeypatch.setattr(hpd, "superlevel_intervals", counting_regions)
        monkeypatch.setattr(hpd, "kde_cdf", counting_cdf)
        res = smallest_mass_region(model, 0.10)
        assert calls == [(r.size,) for r in regions]
        assert len(res.pairs) == len(res.intervals)


class TestCoverageArithmetic:
    """Kept pairs carry 1 - alpha of the KDE's mass, and far clusters are covered."""

    def test_far_cluster_keeps_its_mass(self):
        # the grid step (4.9) is 35 bandwidths; the grid trapezoid search kept 0.481
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.standard_normal(450), rng.normal(1e4, 1.0, 50)])
        res = smallest_mass_region(fit_kde(pts), 0.1)
        assert sum(1.0 - a - b for a, b in res.pairs) >= 0.9

    def test_far_cluster_through_the_pipeline(self):
        # the grid step is about 35 bandwidths, so the binned density is a
        # spike at each occupied grid point; the score is still fixed before
        # calibration, and fresh draws are covered at the calibrated rate
        def draw(rng, n):
            x = rng.uniform(-5, 5, n).reshape(-1, 1)
            eps = rng.standard_normal(n) + np.where(rng.random(n) < 0.1, 1e4, 0.0)
            return Dataset(x, 5 + 2 * x[:, 0] + eps)

        rng = np.random.default_rng(3)
        idx = np.arange(1000)
        plan = SplitPlan(idx_train1=idx[:500], idx_train2=[], idx_cal=idx[500:])
        pipe = fit_kde_hpd(draw(rng, 1000), plan, 0.1)
        fresh = draw(rng, 20_000)
        batch = pipe.predict_regions(fresh.x)
        rows, _, lo, hi = batch.flat()
        covered = score_intervals(rows, lo, hi, fresh.y)[0]
        # given the calibration fold, coverage is Beta(451, 50): sd 0.013
        assert covered.mean() >= 0.9 - 3 * 0.0134 - 3 * math.sqrt(0.09 / fresh.n)
        assert pipe.intervals[-1, 0] > 5e3  # a piece of the region sits in the far cluster
