import numpy as np
import pytest
from scipy.stats import norm

from conformal_hpd.core import ScoreVector, conformal_q, conformal_r
from conformal_hpd.hpd import (
    _sublevel_mass,
    extract_intervals,
    find_cutoff,
    quantile_pairs,
    smallest_mass_region,
    superlevel_intervals,
)
from conformal_hpd.kde import fit_kde, kde_cdf

Z90 = norm.ppf(0.95)  # 1.6449


def mixture_cdf(z):
    return 0.5 * norm.cdf(z + 6.0) + 0.5 * norm.cdf(z - 6.0)


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
        lam = find_cutoff(normal_model, 0.10)
        assert lam == pytest.approx(norm.pdf(Z90), abs=0.01)

    def test_alpha_to_zero_limit(self, normal_model):
        assert find_cutoff(normal_model, 1e-6) < 1e-3

    def test_mixture_cutoff(self, bimodal_model):
        lam = find_cutoff(bimodal_model, 0.10)
        assert lam == pytest.approx(0.5 * norm.pdf(Z90), abs=0.008)

    def test_sublevel_mass_monotone(self, bimodal_model):
        grid, dens = bimodal_model.grid, bimodal_model.grid_density
        lams = np.linspace(0, dens.max(), 25)
        masses = [_sublevel_mass(grid, dens, lam) for lam in lams]
        assert (np.diff(masses) >= 0).all()

    def test_alpha_validation(self, normal_model):
        with pytest.raises(ValueError, match="alpha"):
            find_cutoff(normal_model, 0.0)


class TestExtractIntervals:
    def test_normal_single_interval(self, normal_model):
        ivals = extract_intervals(normal_model, 0.10314)
        assert len(ivals) == 1
        lo, hi = ivals[0]
        assert lo == pytest.approx(-Z90, abs=0.05)
        assert hi == pytest.approx(Z90, abs=0.05)

    def test_bimodal_two_intervals(self, bimodal_model):
        lam = find_cutoff(bimodal_model, 0.10)
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
        ivals = extract_intervals(normal_model, 0.0)
        assert len(ivals) == 1
        assert ivals[0][0] == normal_model.grid[0]
        assert ivals[0][1] == normal_model.grid[-1]

    def test_cutoff_above_max_raises(self, normal_model):
        lam = float(normal_model.grid_density.max()) + 1e-6
        with pytest.raises(ValueError, match="empty HPD set"):
            extract_intervals(normal_model, lam)

    def test_unimodal_gives_one_interval_for_any_cutoff(self):
        # premise: a single local maximum on the grid (moderate n, wide h)
        rng = np.random.default_rng(5)
        model = fit_kde(rng.standard_normal(200), h=0.6)
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

        lam = find_cutoff(bimodal_model, 0.10)
        for lo, hi in extract_intervals(bimodal_model, lam):
            assert kde_eval(bimodal_model, lo) == pytest.approx(lam, rel=1e-3)
            assert kde_eval(bimodal_model, hi) == pytest.approx(lam, rel=1e-3)


class TestSuperlevelIntervals:
    @pytest.mark.parametrize("iterations", [20, 40])
    def test_interior_crossings_match_normal_root(self, iterations):
        grid = np.linspace(-6.0, 6.0, 301)
        lam = 0.1
        root = np.sqrt(-2.0 * np.log(lam * np.sqrt(2.0 * np.pi)))
        (lo, hi), = superlevel_intervals(norm.pdf, grid, norm.pdf(grid), lam, iterations)
        tol = (grid[1] - grid[0]) * 2.0**-iterations
        assert abs(lo + root) <= tol
        assert abs(hi - root) <= tol

    def test_runs_touching_the_grid_ends_stay_on_the_grid(self):
        lam = 0.1
        root = np.sqrt(-2.0 * np.log(lam * np.sqrt(2.0 * np.pi)))
        right = np.linspace(0.5, 3.0, 101)
        (lo, hi), = superlevel_intervals(norm.pdf, right, norm.pdf(right), lam, 40)
        assert lo == right[0]
        assert hi == pytest.approx(root, abs=1e-12)
        left = -right[::-1]
        (lo, hi), = superlevel_intervals(norm.pdf, left, norm.pdf(left), lam, 40)
        assert lo == pytest.approx(-root, abs=1e-12)
        assert hi == left[-1]
        assert superlevel_intervals(norm.pdf, right, norm.pdf(right), 0.0, 40) == [
            (right[0], right[-1])
        ]

    def test_empty_when_nothing_exceeds_the_cutoff(self):
        grid = np.linspace(-3.0, 3.0, 61)
        assert superlevel_intervals(norm.pdf, grid, norm.pdf(grid), 1.0, 20) == []


class TestQuantilePairs:
    def test_normal_symmetric_pair(self, normal_model):
        pairs = quantile_pairs(normal_model, [(-Z90, Z90)])
        assert pairs[0][0] == pytest.approx(0.05, abs=0.01)
        assert pairs[0][1] == pytest.approx(0.05, abs=0.01)

    def test_bimodal_pairs_match_mixture_oracle(self, bimodal_model):
        lam = find_cutoff(bimodal_model, 0.10)
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
            kde_cdf(bimodal_model, hi) - kde_cdf(bimodal_model, lo)
            for lo, hi in res.intervals
        )
        assert covered == pytest.approx(0.90, abs=0.01)

    def test_tail_budget_sums_to_alpha(self, bimodal_model):
        res = smallest_mass_region(bimodal_model, 0.10)
        gaps = 0.0
        for (_, hi_prev), (lo_next, _) in zip(res.intervals[:-1], res.intervals[1:]):
            gaps += kde_cdf(bimodal_model, lo_next) - kde_cdf(bimodal_model, hi_prev)
        total_miss = res.pairs[0][0] + res.pairs[-1][1] + gaps
        assert total_miss == pytest.approx(0.10, abs=0.01)

    def test_reconstruction_links_to_order_statistics(self, normal_model):
        res = smallest_mass_region(normal_model, 0.10)
        scores = ScoreVector(normal_model.points)
        (lo, hi), (a1, b1) = res.intervals[0], res.pairs[0]
        eta = conformal_r(scores, a1)
        gamma = conformal_q(scores, 1.0 - b1)
        assert eta == pytest.approx(lo, abs=0.12)
        assert gamma == pytest.approx(hi, abs=0.12)

    def test_sliver_suppression(self):
        # one dominant mode plus three stray points: the stray component
        # above the cutoff must be dropped from the pair list
        rng = np.random.default_rng(99)
        pts = np.concatenate([rng.standard_normal(2000), [40.0, 40.01, 40.02]])
        model = fit_kde(pts, h=0.15)
        res = smallest_mass_region(model, 0.10)
        assert all(hi < 20 for _, hi in res.intervals)
