import math

import numpy as np
import pytest
from scipy.stats import norm

from conformal_hpd.kde import KdeModel, bandwidth, fit_kde, kde_cdf, kde_eval


def standardized(raw):
    """Center and scale to sample sd (ddof=1) exactly one."""
    raw = np.asarray(raw, dtype=float)
    return (raw - raw.mean()) / raw.std(ddof=1)


class TestBandwidth:
    def test_rule_at_n_1000(self):
        pts = standardized(np.linspace(0.0, 1.0, 1000))
        q25, q75 = np.percentile(pts, [25, 75])
        assert (q75 - q25) / 1.34 >= 1.0  # sd branch active
        assert bandwidth(pts) == pytest.approx(0.09, abs=1e-12)

    def test_rule_at_n_8_iqr_branch(self):
        a = math.sqrt((28.0 - 6 * 1.005**2) / 2.0)
        pts = np.array([-a, -1.005, -1.005, -1.005, 1.005, 1.005, 1.005, a])
        assert np.std(pts, ddof=1) == pytest.approx(2.0, abs=1e-12)
        q25, q75 = np.percentile(pts, [25, 75])
        assert (q75 - q25) / 1.34 == pytest.approx(1.5, abs=1e-12)
        assert bandwidth(pts) == pytest.approx(0.675, abs=1e-12)

    def test_degenerate_points_fall_back(self):
        assert bandwidth(np.full(50, 3.7)) == 1e-3

    def test_zero_iqr_uses_sd(self):
        pts = np.array([0.0] * 40 + [10.0] * 5)
        sd = np.std(pts, ddof=1)
        assert bandwidth(pts) == pytest.approx(0.9 * sd * 45 ** (-1 / 3))


class TestDensity:
    def test_single_point_standard_normal_height(self):
        model = KdeModel(points=np.array([0.0]), h=1.0)
        assert kde_eval(model, np.array([0.0]))[0] == pytest.approx(0.3989422804, abs=1e-9)

    def test_two_point_average(self):
        model = KdeModel(points=np.array([-1.0, 1.0]), h=1.0)
        assert kde_eval(model, np.array([0.0]))[0] == pytest.approx(norm.pdf(1.0), abs=1e-12)

    def test_grid_density_integrates_to_one(self):
        rng = np.random.default_rng(3)
        model = fit_kde(rng.normal(2.0, 1.5, size=400))
        total = np.trapezoid(model.grid_density, model.grid)
        assert abs(total - 1.0) < 5e-3
        assert 0.995 <= total <= 1.0

    def test_density_nonnegative_everywhere(self):
        rng = np.random.default_rng(4)
        model = fit_kde(rng.standard_t(3, size=200))
        assert (kde_eval(model, rng.uniform(-20, 20, 100)) >= 0).all()

    def test_sup_error_against_normal_density(self):
        # bar frozen from a 30-seed pilot: sup error ranged 0.031-0.057
        # at this sample size and bandwidth rate
        rng = np.random.default_rng(12)
        model = fit_kde(rng.standard_normal(5000))
        sup_err = np.abs(model.grid_density - norm.pdf(model.grid)).max()
        assert sup_err < 0.06

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="positive"):
            KdeModel(points=np.array([0.0, 1.0]), h=0.0)
        with pytest.raises(ValueError, match="nonempty"):
            KdeModel(points=np.array([]), h=1.0)


class TestCdf:
    def test_symmetry_at_center(self):
        model = KdeModel(points=np.array([0.0]), h=1.0)
        assert kde_cdf(model, np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        model = KdeModel(points=np.array([-1.0, 1.0]), h=1.0)
        assert kde_cdf(model, np.array([60.0]))[0] == pytest.approx(1.0, abs=1e-12)
        assert kde_cdf(model, np.array([-60.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_numeric_integration_of_density(self):
        rng = np.random.default_rng(9)
        model = fit_kde(rng.normal(0.5, 2.0, size=300))
        fine = np.linspace(model.grid[0], model.grid[-1], 20001)
        dens = kde_eval(model, fine)
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine)))
        )
        probes = np.linspace(model.grid[0], model.grid[-1], 20)
        for z in probes:
            oracle = float(np.interp(z, fine, cum))
            assert kde_cdf(model, np.array([z]))[0] == pytest.approx(oracle, abs=1e-4)

    def test_monotone_on_sorted_probes(self):
        rng = np.random.default_rng(10)
        model = fit_kde(rng.exponential(1.0, 250))
        zs = np.sort(rng.uniform(-2, 8, 200))
        vals = kde_cdf(model, zs)
        assert (np.diff(vals) >= 0).all()

    def test_derivative_matches_density(self):
        rng = np.random.default_rng(11)
        model = fit_kde(rng.standard_normal(150))
        h_fd = 1e-4
        for z in [-1.3, -0.2, 0.7, 1.9]:
            fd = (kde_cdf(model, np.array([z + h_fd]))[0] - kde_cdf(model, np.array([z - h_fd]))[0]) / (2 * h_fd)
            dens = kde_eval(model, np.array([z]))[0]
            assert abs(fd - dens) / dens < 1e-6


class TestQueryShape:
    @pytest.mark.parametrize("fn", [kde_eval, kde_cdf])
    @pytest.mark.parametrize("z", [0.0, np.array(0.0), np.zeros((3, 1))])
    def test_non_vector_queries_rejected(self, fn, z):
        model = KdeModel(points=np.array([-1.0, 1.0]), h=1.0)
        with pytest.raises(ValueError, match="1-dimensional"):
            fn(model, z)
