import numpy as np
import pytest
from scipy.stats import norm, spearmanr

from conformal_hpd.core import Dataset
from conformal_hpd.regress import (
    MeanConfig,
    QuantileConfig,
    ScaleConfig,
    fit_mean,
    fit_quantile_ladder,
    fit_scale,
    predict_mean,
    predict_quantile,
    predict_scale,
)


def line_dataset(n=50, noise=None, rng=None):
    x = np.linspace(-5, 5, n).reshape(-1, 1)
    y = 5.0 + 2.0 * x[:, 0]
    if noise is not None:
        y = y + noise(rng, n)
    return Dataset(x, y)


class TestFitMean:
    def test_exact_line_recovered(self):
        gh = fit_mean(line_dataset())
        assert predict_mean(gh, [[0.0]])[0] == pytest.approx(5.0, abs=1e-10)
        assert predict_mean(gh, [[2.0]])[0] == pytest.approx(9.0, abs=1e-10)
        grid = np.linspace(-5, 5, 11).reshape(-1, 1)
        np.testing.assert_allclose(
            predict_mean(gh, grid), 5.0 + 2.0 * grid[:, 0], atol=1e-10
        )

    def test_noisy_line_coefficients(self):
        rng = np.random.default_rng(21)
        data = line_dataset(1000, noise=lambda r, n: r.standard_normal(n), rng=rng)
        gh = fit_mean(data)
        assert abs(gh.coef[0] - 5.0) < 0.2
        assert abs(gh.coef[1] - 2.0) < 0.2

    def test_constant_kind(self):
        data = line_dataset(40)
        gh = fit_mean(data, MeanConfig(kind="constant"))
        assert predict_mean(gh, [[3.3]])[0] == pytest.approx(data.y.mean())
        assert predict_mean(gh, [[-4.0]])[0] == pytest.approx(data.y.mean())

    def test_knn_mean_with_k_equal_n(self):
        data = line_dataset(30)
        gh = fit_mean(data, MeanConfig(kind="knn-mean", k=30))
        assert predict_mean(gh, [[1.0]])[0] == pytest.approx(data.y.mean())

    def test_ols_with_features(self):
        x = np.linspace(-3, 3, 80).reshape(-1, 1)
        y = 1.0 + 0.5 * x[:, 0] + 2.0 * x[:, 0] ** 2
        gh = fit_mean(
            Dataset(x, y), MeanConfig(kind="ols-with-features", feature_map=("raw", "square"))
        )
        assert predict_mean(gh, [[2.0]])[0] == pytest.approx(1 + 1 + 8, abs=1e-8)

    def test_singular_design_raises(self):
        x = np.ones((10, 2))  # two identical constant columns
        with pytest.raises(ValueError, match="singular design matrix"):
            fit_mean(Dataset(x, np.arange(10.0)))

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="too few rows"):
            fit_mean(Dataset(np.ones((1, 1)), np.ones(1)))

    def test_residuals_sum_to_zero_with_intercept(self):
        rng = np.random.default_rng(3)
        data = line_dataset(200, noise=lambda r, n: r.normal(0, 2, n), rng=rng)
        gh = fit_mean(data)
        resid = data.y - predict_mean(gh, data.x)
        assert abs(resid.sum()) < 1e-8 * data.n

    def test_dimension_mismatch(self):
        gh = fit_mean(line_dataset())
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_mean(gh, np.ones((4, 3)))

    @pytest.mark.parametrize("x", [0.5, np.array([0.5]), np.array([0.5, 1.0])])
    def test_scalar_and_one_dimensional_input_rejected(self, x):
        data = line_dataset(100)
        gh = fit_mean(data)
        estimators = [
            lambda: predict_mean(gh, x),
            lambda: predict_quantile(
                fit_quantile_ladder(data, [0.5], QuantileConfig(k=10)), x, 0.5
            ),
        ]
        for kind in ("constant-one", "ols-absres"):
            sh = fit_scale(data, gh, ScaleConfig(kind=kind))
            estimators.append(lambda sh=sh: predict_scale(sh, x))
        for predict in estimators:
            with pytest.raises(ValueError, match="dimension mismatch"):
                predict()


class TestFitScale:
    def test_constant_one(self):
        no_rows = Dataset(np.zeros((0, 2)), np.zeros(0))
        sh = fit_scale(no_rows, None, ScaleConfig(kind="constant-one"))
        assert predict_scale(sh, [[0.7, 0.7]])[0] == 1.0
        assert np.all(predict_scale(sh, np.zeros((5, 2))) == 1.0)

    def test_bowtie_scale_increases_with_abs_x(self):
        rng = np.random.default_rng(17)
        n = 2000
        x = rng.uniform(-5, 5, n).reshape(-1, 1)
        y = 5.0 + 2.0 * x[:, 0] + rng.normal(0.0, np.abs(x[:, 0]))
        data = Dataset(x, y)
        gh = fit_mean(data)
        sh = fit_scale(data, gh, ScaleConfig(kind="knn-quantile-absres", level=0.9))
        grid = np.linspace(-4.5, 4.5, 41).reshape(-1, 1)
        rho = spearmanr(predict_scale(sh, grid), np.abs(grid[:, 0])).statistic
        assert rho > 0.9

    def test_constant_absolute_residuals_binned(self):
        x = np.linspace(-5, 5, 400).reshape(-1, 1)
        c = 0.8
        y = 1.0 + np.tile([c, -c], 200)  # |y - mean| == c everywhere
        data = Dataset(x, y)
        gh = fit_mean(data, MeanConfig(kind="constant"))
        sh = fit_scale(data, gh, ScaleConfig(kind="binned-quantile-absres"))
        for q in [-4.9, -1.0, 0.3, 4.9]:
            assert predict_scale(sh, [[q]])[0] == pytest.approx(c, abs=1e-9)

    def test_floor_clamps_negative_fit(self):
        # absolute residuals shrink linearly in x; OLS extrapolates negative
        x = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (1.0 - x[:, 0]) * np.tile([1.0, -1.0], 25)
        data = Dataset(x, y)
        gh = fit_mean(data, MeanConfig(kind="constant"))
        sh = fit_scale(data, gh, ScaleConfig(kind="ols-absres", floor=1e-6))
        assert predict_scale(sh, [[5.0]])[0] == pytest.approx(1e-6)

    def test_binned_out_of_range_uses_nearest_bin(self):
        rng = np.random.default_rng(4)
        x = np.linspace(0, 1, 300).reshape(-1, 1)
        y = rng.normal(0, 1 + x[:, 0], 300)
        data = Dataset(x, y)
        gh = fit_mean(data, MeanConfig(kind="constant"))
        sh = fit_scale(data, gh, ScaleConfig(kind="binned-quantile-absres", bins=5))
        assert predict_scale(sh, [[-10.0]])[0] == pytest.approx(sh.bin_values[0])
        assert predict_scale(sh, [[10.0]])[0] == pytest.approx(sh.bin_values[-1])

    def test_scale_never_below_floor(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-5, 5, 500).reshape(-1, 1)
        y = rng.normal(0, 0.001, 500)
        data = Dataset(x, y)
        gh = fit_mean(data)
        for kind in ("ols-absres", "knn-quantile-absres", "binned-quantile-absres"):
            sh = fit_scale(data, gh, ScaleConfig(kind=kind, floor=1e-6))
            vals = np.atleast_1d(predict_scale(sh, rng.uniform(-20, 20, 200).reshape(-1, 1)))
            assert (vals >= 1e-6).all()

    def test_empty_fold_rejected(self):
        gh = fit_mean(line_dataset())
        with pytest.raises(ValueError, match="empty"):
            no_rows = Dataset(np.zeros((0, 1)), np.zeros(0))
            fit_scale(no_rows, gh, ScaleConfig(kind="ols-absres"))


class TestFitQuantile:
    def test_knn_quantile_matches_normal_tail(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-5, 5, 5000).reshape(-1, 1)
        y = rng.standard_normal(5000)
        qe = fit_quantile_ladder(Dataset(x, y), [0.95], QuantileConfig(kind="knn-quantile", k=500))
        assert predict_quantile(qe, [[0.0]], 0.95)[0] == pytest.approx(norm.ppf(0.95), abs=0.15)

    def test_median_matches_mean_under_symmetry(self):
        rng = np.random.default_rng(32)
        x = rng.uniform(-5, 5, 4000).reshape(-1, 1)
        y = 1.0 + rng.standard_normal(4000)
        data = Dataset(x, y)
        qe = fit_quantile_ladder(data, [0.5], QuantileConfig(kind="knn-quantile", k=400))
        gh = fit_mean(data, MeanConfig(kind="knn-mean", k=400))
        for q in [-2.0, 0.0, 2.0]:
            assert predict_quantile(qe, [[q]], 0.5)[0] == pytest.approx(
                predict_mean(gh, [[q]])[0], abs=0.15
            )

    def test_constant_response(self):
        x = np.linspace(0, 1, 60).reshape(-1, 1)
        data = Dataset(x, np.full(60, 2.5))
        for level in (0.1, 0.5, 0.9):
            qe = fit_quantile_ladder(data, [level], QuantileConfig(kind="knn-quantile", k=20))
            assert predict_quantile(qe, [[0.5]], level)[0] == pytest.approx(2.5)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(33)
        x = rng.uniform(-5, 5, 1500).reshape(-1, 1)
        y = rng.standard_normal(1500) * (1 + 0.3 * np.abs(x[:, 0]))
        data = Dataset(x, y)
        qe = fit_quantile_ladder(data, np.arange(0.1, 0.95, 0.1), QuantileConfig(kind="knn-quantile"))
        vals = predict_quantile(qe, np.array([[0.0], [3.0]]))
        assert (np.diff(vals, axis=1) >= 0).all()

    def test_linear_quantile_on_gaussian_line(self):
        rng = np.random.default_rng(34)
        n = 2000
        x = rng.uniform(-5, 5, n).reshape(-1, 1)
        y = 5.0 + 2.0 * x[:, 0] + rng.standard_normal(n)
        qe = fit_quantile_ladder(
            Dataset(x, y), [0.9], QuantileConfig(kind="linear-quantile", feature_map=("raw",))
        )
        for q in (-3.0, 0.0, 3.0):
            expected = 5.0 + 2.0 * q + norm.ppf(0.9)
            assert predict_quantile(qe, [[q]], 0.9)[0] == pytest.approx(expected, abs=0.25)

    def test_unfitted_level_raises(self):
        data = line_dataset(100)
        qe = fit_quantile_ladder(data, [0.5], QuantileConfig(kind="knn-quantile", k=10))
        with pytest.raises(ValueError, match="not fitted"):
            predict_quantile(qe, [[0.0]], 0.9)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            fit_quantile_ladder(line_dataset(), [1.5])
