import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import expit
from scipy.stats import norm, spearmanr

from conformal_hpd import regress, sim
from conformal_hpd.conformal import DCP_LADDER_LEVELS
from conformal_hpd.core import ConfigError, Dataset
from conformal_hpd.regress import (
    KNN_BLOCK,
    QUANTILE_MAX_STEPS,
    QUANTILE_TOL,
    KnnQuantiles,
    LinearQuantiles,
    QuantileConfig,
    ScaleConfig,
    fit_mean,
    fit_quantile_ladder,
    fit_scale,
    predict_mean,
    predict_quantile,
    predict_scale,
    _ols,
    _quantile_design,
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

    def test_singular_design_raises(self):
        x = np.ones((10, 2))  # two identical constant columns
        with pytest.raises(ValueError, match="singular design matrix"):
            fit_mean(Dataset(x, np.arange(10.0)))

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="too few rows"):
            fit_mean(Dataset(np.ones((1, 1)), np.ones(1)))

    def test_fewer_rows_than_coefficients_is_a_config_error_naming_both(self):
        design = np.hstack([np.ones((2, 1)), np.arange(4.0).reshape(2, 2)])
        with pytest.raises(ConfigError, match="too few rows.*2 rows for 3 coefficients"):
            _ols(design, np.ones(2))

    def test_rank_deficient_design_with_enough_rows_is_not_a_config_error(self):
        x = np.ones((10, 2))  # rows to spare, but two identical constant columns
        with pytest.raises(ValueError, match="singular design matrix") as err:
            fit_mean(Dataset(x, np.arange(10.0)))
        assert not isinstance(err.value, ConfigError)

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
        sh = fit_scale(data, gh, ScaleConfig(kind="knn-quantile-absres"))
        estimators = [
            lambda: predict_mean(gh, x),
            lambda: predict_quantile(fit_quantile_ladder(data, [0.5], QuantileConfig()), x),
            lambda: predict_scale(sh, x),
            lambda: predict_scale(None, x),  # the constant one
        ]
        for predict in estimators:
            with pytest.raises(ValueError, match="dimension mismatch"):
                predict()


class TestFitScale:
    def test_constant_one(self):
        no_rows = Dataset(np.zeros((0, 2)), np.zeros(0))
        sh = fit_scale(no_rows, None, ScaleConfig(kind="constant-one"))
        assert sh is None
        assert predict_scale(sh, [[0.7, 0.7]])[0] == 1.0
        assert np.all(predict_scale(sh, np.zeros((5, 2))) == 1.0)
        with pytest.raises(ValueError, match="covariates must be finite"):
            predict_scale(sh, [[0.7, np.inf]])

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

    def test_floor_clamps_negative_fit(self):
        # a constant response leaves zero absolute residuals; the kNN
        # quantile of zeros is clamped up to the floor
        x = np.linspace(0, 1, 50).reshape(-1, 1)
        data = Dataset(x, np.full(50, 2.5))
        gh = fit_mean(data)
        sh = fit_scale(data, gh, ScaleConfig(kind="knn-quantile-absres"))
        assert predict_scale(sh, [[5.0]])[0] == pytest.approx(1e-6)

    def test_scale_never_below_floor(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-5, 5, 500).reshape(-1, 1)
        y = rng.normal(0, 0.001, 500)
        data = Dataset(x, y)
        gh = fit_mean(data)
        sh = fit_scale(data, gh, ScaleConfig(kind="knn-quantile-absres"))
        vals = predict_scale(sh, rng.uniform(-20, 20, 200).reshape(-1, 1))
        assert (vals >= 1e-6).all()


class TestFitQuantile:
    def test_knn_quantile_matches_normal_tail(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-5, 5, 5000).reshape(-1, 1)
        y = rng.standard_normal(5000)
        qe = fit_quantile_ladder(Dataset(x, y), [0.95], QuantileConfig(kind="knn-quantile"))
        assert predict_quantile(qe, [[0.0]])[0, 0] == pytest.approx(norm.ppf(0.95), abs=0.15)

    def test_median_matches_mean_under_symmetry(self):
        rng = np.random.default_rng(32)
        x = rng.uniform(-5, 5, 4000).reshape(-1, 1)
        y = 1.0 + rng.standard_normal(4000)
        data = Dataset(x, y)
        qe = fit_quantile_ladder(data, [0.5], QuantileConfig(kind="knn-quantile"))
        for q in [-2.0, 0.0, 2.0]:
            # mean of the same 400 nearest neighbours the quantile sees
            nearest = np.argsort(np.abs(x[:, 0] - q), kind="stable")[:400]
            assert predict_quantile(qe, [[q]])[0, 0] == pytest.approx(
                data.y[nearest].mean(), abs=0.15
            )

    def test_constant_response(self):
        x = np.linspace(0, 1, 60).reshape(-1, 1)
        data = Dataset(x, np.full(60, 2.5))
        for level in (0.1, 0.5, 0.9):
            qe = fit_quantile_ladder(data, [level], QuantileConfig(kind="knn-quantile"))
            assert predict_quantile(qe, [[0.5]])[0, 0] == pytest.approx(2.5)

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
            Dataset(x, y), [0.9], QuantileConfig(kind="linear-quantile")
        )
        for q in (-3.0, 0.0, 3.0):
            expected = 5.0 + 2.0 * q + norm.ppf(0.9)
            assert predict_quantile(qe, [[q]])[0, 0] == pytest.approx(expected, abs=0.25)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            fit_quantile_ladder(line_dataset(), [1.5])
        with pytest.raises(ConfigError, match="1-D array"):
            fit_quantile_ladder(line_dataset(), 0.5)  # no scalar guessing: a ladder is 1-D


LINEAR = QuantileConfig(kind="linear-quantile")


def scenario_fold(tag, n):
    """The first ``n`` observed rows of a scenario law, seed 0."""
    observed, _, _ = sim.generate(sim.Scenario(tag, n_train=n // 2, n_cal=n - n // 2, n_test=1))
    return observed


def mean_pinball(data, qmat, levels):
    r = data.y[:, None] - qmat
    return np.maximum(levels * r, (levels - 1) * r).mean(axis=0)


def lp_pinball(design, y, tau):
    """Exact minimum of the mean pinball loss: the quantile-regression LP dual, by HiGHS."""
    res = linprog(-y, A_eq=design.T, b_eq=np.zeros(design.shape[1]),
                  bounds=(tau - 1, tau), method="highs")
    assert res.status == 0
    return -res.fun / y.size


def standardized_design(data):
    """The design ``fit_quantile_ladder`` hands the Newton loop, by its documented steps."""
    design = _quantile_design(data.x)
    mu, sd = design.mean(axis=0), design.std(axis=0)
    mu[0], sd[0] = 0.0, 1.0  # the intercept column stays as it is
    sd[sd == 0] = 1.0
    return (design - mu) / sd


def smoothed_z(coef, design, y, levels):
    """z = (y - X coef) / s at a linear ladder, and s, from the documented formulas."""
    n, p = design.shape
    ols, *_ = np.linalg.lstsq(design, y, rcond=None)
    c = np.std(y - design @ ols)
    h = c * np.maximum(0.01, np.sqrt(levels * (1 - levels)) * min((p + np.log(n)) / n, 0.5) ** 0.4)
    s = h * np.sqrt(3) / np.pi
    return (y[:, None] - design @ coef) / s, s


def smoothed_gradient(qe, data):
    """The smoothed pinball gradient at a fitted linear ladder."""
    design = standardized_design(data)
    z, _ = smoothed_z(qe.coef, design, data.y, qe.levels)
    return design.T @ (expit(-z) - qe.levels) / data.n


def smoothed_loss(coef, design, y, levels):
    """The smoothed pinball loss s mean(tau z + log(1 + exp(-z))) per level."""
    z, s = smoothed_z(coef, design, y, levels)
    return s * (levels * z + np.logaddexp(0.0, -z)).mean(axis=0)


@st.composite
def ladder_folds(draw, max_n=4000, offsets=(0.0, 1e9)):
    """Rows with one or two covariates: heavy or skewed noise, optional ties and offset."""
    n = draw(st.integers(20, max_n))
    d = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-5.0, 5.0, (n, d))
    noise = draw(st.sampled_from(["normal", "cauchy", "gamma", "hetero"]))
    eps = {
        "normal": lambda: rng.standard_normal(n),
        "cauchy": lambda: rng.standard_cauchy(n),
        "gamma": lambda: rng.gamma(0.3, size=n),
        "hetero": lambda: rng.exponential(size=n) * np.abs(x[:, 0]),
    }[noise]()
    y = 1.0 + x.sum(axis=1) + eps
    if draw(st.booleans()):
        y = np.round(y)  # tied responses
    return Dataset(x, y + draw(st.sampled_from(offsets)))


def reference_smoothed_quantiles(design: np.ndarray, y: np.ndarray, levels: np.ndarray):
    """``regress._smoothed_quantiles`` as first written, with fresh temporaries and masked selects.

    The work-array loop must take the same steps and reach the same
    coefficients up to rounding.
    """
    n, p = design.shape
    w0 = _ols(design, y)
    resid = y - design @ w0  # the fit is translation-invariant
    c = max(float(np.std(resid)), 1e-8)
    h = c * np.maximum(0.01, np.sqrt(levels * (1 - levels)) * min((p + math.log(n)) / n, 0.5) ** 0.4)
    s = h * math.sqrt(3) / math.pi
    outer = (design[:, :, None] * design[:, None, :]).reshape(n, p * p)
    gram = design.T @ design / (n * c)

    def evaluate(b, at):
        """z, exp(-|z|) and the loss at offsets ``b``, one row per level index in ``at``."""
        z = (resid - b @ design.T) / s[at, None]
        e = np.exp(-np.abs(z))
        loss = levels[at] * z.mean(axis=1) + (np.log1p(e) - np.minimum(z, 0.0)).mean(axis=1)
        return z, e, s[at] * loss

    b = np.zeros((levels.size, p))  # offsets from the OLS fit, one row per level
    b[:, 0] = np.quantile(resid, levels)
    active = np.arange(levels.size)  # levels still moving; z, e and loss follow it
    z, e, loss = evaluate(b, active)
    for step in range(QUANTILE_MAX_STEPS + 1):
        q = 1.0 / (1.0 + e)
        grad = (np.where(z < 0, q, e * q) - levels[active, None]) @ design / n  # G(-z) = 1/(1+e^z)
        keep = np.abs(grad).max(axis=1) > QUANTILE_TOL
        active, z, e, q, loss, grad = (a[keep] for a in (active, z, e, q, loss, grad))
        if active.size == 0:
            return (w0 + b).T, step
        if step == QUANTILE_MAX_STEPS:
            raise RuntimeError(
                f"smoothed quantile fit did not converge at levels {levels[active].tolist()}"
            )
        hess = ((e * q * q / s[active, None]) @ outer / n).reshape(-1, p, p)
        hess += np.abs(grad).max(axis=1)[:, None, None] * gram
        move = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        slope = (grad * move).sum(axis=1)
        t = np.ones(active.size)
        todo = np.arange(active.size)
        while todo.size:
            trial = b[active[todo]] + t[todo, None] * move[todo]
            zt, et, lt = evaluate(trial, active[todo])
            # the slack absorbs rounding in the loss, so a step too small to
            # move b passes and the halving ends
            ok = lt <= loss[todo] * (1.0 + 1e-12) + 1e-4 * t[todo] * slope[todo]
            b[active[todo[ok]]] = trial[ok]
            z[todo[ok]], e[todo[ok]], loss[todo[ok]] = zt[ok], et[ok], lt[ok]
            todo = todo[~ok]
            t[todo] *= 0.5


def assert_ladders_close(got, expected, rel):
    """Every level's coefficients within ``rel`` of that level's largest |coef|."""
    assert got.shape == expected.shape
    assert (np.abs(got - expected) <= rel * np.abs(expected).max(axis=0)).all()


class TestSmoothedQuantileLadder:
    @pytest.mark.parametrize("n", [500, 60])
    @pytest.mark.parametrize("tag", sim.SCENARIO_TAGS)
    def test_pinball_loss_near_exact_lp_optimum(self, tag, n):
        data = scenario_fold(tag, n)
        qe = fit_quantile_ladder(data, DCP_LADDER_LEVELS, LINEAR)
        ours = mean_pinball(data, predict_quantile(qe, data.x), DCP_LADDER_LEVELS)
        design = _quantile_design(data.x)
        exact = np.array([lp_pinball(design, data.y, tau) for tau in DCP_LADDER_LEVELS])
        excess = ours / exact - 1.0
        assert excess.min() > -1e-9  # the LP is the minimum
        assert excess.max() <= 0.05
        assert excess.mean() <= 0.02

    @pytest.mark.parametrize("tag", sim.SCENARIO_TAGS)
    def test_gradient_at_fit_within_tolerance(self, tag):
        data = scenario_fold(tag, 500)
        qe = fit_quantile_ladder(data, DCP_LADDER_LEVELS, LINEAR)
        assert 1 <= qe.iterations <= QUANTILE_MAX_STEPS
        assert np.abs(smoothed_gradient(qe, data)).max() <= QUANTILE_TOL

    @given(ladder_folds())
    @settings(max_examples=40, deadline=None)
    def test_converges_below_the_step_cap(self, data):
        qe = fit_quantile_ladder(data, DCP_LADDER_LEVELS, LINEAR)
        assert qe.iterations <= QUANTILE_MAX_STEPS
        assert np.isfinite(qe.coef).all()

    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="open defect (CHANGES.md FOUND): Cauchy folds can need more than "
        "QUANTILE_MAX_STEPS Newton steps at level 0.01; drop this marker once they converge",
    )
    @pytest.mark.parametrize("seed", [549, 885, 1401])  # n 245 d 1, n 168 d 2, n 503 d 2
    def test_converges_on_seeded_cauchy_folds(self, seed):
        # the only seeds in 0-1499 whose fold of this recipe hits the step cap
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(20, 600)), int(rng.integers(1, 3))
        x = rng.uniform(-5, 5, (n, d))
        y = 1 + x.sum(axis=1) + rng.standard_cauchy(n)
        qe = fit_quantile_ladder(Dataset(x, y), DCP_LADDER_LEVELS, LINEAR)
        assert qe.iterations <= QUANTILE_MAX_STEPS

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="open defect (CHANGES.md FOUND): on a tied Cauchy fold the fit on 3 y misses "
        "3 times the fit on y at level 0.01 by 1.8 times the equivariance bound; drop this "
        "marker once it holds",
    )
    def test_equivariant_on_a_seeded_tied_cauchy_fold(self):
        # the only seed in 0-1499 of this recipe (n 623, d 1, rounded responses)
        # whose fold breaks test_equivariant_under_affine_response_maps' bound
        rng = np.random.default_rng(1190)
        n = int(rng.integers(20, 1000))
        x = rng.uniform(-5, 5, (n, 1))
        y = np.round(1 + x[:, 0] + rng.standard_cauchy(n))
        base = fit_quantile_ladder(Dataset(x, y), DCP_LADDER_LEVELS, LINEAR).coef
        mapped = fit_quantile_ladder(Dataset(x, 3.0 * y), DCP_LADDER_LEVELS, LINEAR).coef
        scale = 3.0 * np.abs(base).max(axis=0)  # per level, as in the property
        assert (np.abs(mapped - 3.0 * base) <= 1e-8 * scale).all()

    @given(
        ladder_folds(max_n=1000, offsets=(0.0,)),
        st.floats(1e-3, 1e3),
        st.floats(-1e3, 1e3),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivariant_under_affine_response_maps(self, data, a, b):
        base = fit_quantile_ladder(data, DCP_LADDER_LEVELS, LINEAR).coef
        mapped = fit_quantile_ladder(Dataset(data.x, a * data.y + b), DCP_LADDER_LEVELS, LINEAR)
        expected = a * base
        expected[0] += b
        scale = a * np.abs(base).max(axis=0) + abs(b)  # per level
        assert (np.abs(mapped.coef - expected) <= 1e-8 * scale).all()

    @pytest.mark.parametrize("tag", sim.SCENARIO_TAGS)
    def test_same_steps_and_coefficients_as_the_reference_loop(self, tag):
        data = scenario_fold(tag, 500)
        qe = fit_quantile_ladder(data, DCP_LADDER_LEVELS, LINEAR)
        coef, steps = reference_smoothed_quantiles(
            standardized_design(data), data.y, DCP_LADDER_LEVELS
        )
        assert qe.iterations == steps
        assert_ladders_close(qe.coef, coef, 1e-10)

    @given(ladder_folds(offsets=(0.0,)))
    @settings(max_examples=30, deadline=None)
    def test_reaches_the_reference_optimum(self, data):
        # on ill-conditioned folds (ties, thousands of rows, an outer level)
        # rounding moves the iterates along nearly flat directions of the
        # loss: the two loops' coefficients can differ by ~5e-9 of max|coef|
        # there, and the reference's by ~3e-10 when that level is fitted
        # alone, while the smoothed loss agrees to ~5e-15
        design = standardized_design(data)
        try:
            coef, _ = reference_smoothed_quantiles(design, data.y, DCP_LADDER_LEVELS)
        except RuntimeError as exc:  # past the step cap: the same levels must stop the fit
            with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                fit_quantile_ladder(data, DCP_LADDER_LEVELS, LINEAR)
            return
        qe = fit_quantile_ladder(data, DCP_LADDER_LEVELS, LINEAR)
        ours, ref = (smoothed_loss(c, design, data.y, DCP_LADDER_LEVELS) for c in (qe.coef, coef))
        assert (np.abs(ours - ref) <= 1e-12 * ref).all()
        assert np.abs(smoothed_gradient(qe, data)).max() <= QUANTILE_TOL

    @given(
        st.sampled_from(sim.SCENARIO_TAGS),
        st.lists(st.integers(0, DCP_LADDER_LEVELS.size - 1), min_size=1, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_levels_are_independent_problems(self, tag, picked):
        # any subset, in any order: a row of the work arrays paired with the
        # wrong level would move that level's coefficients
        data = scenario_fold(tag, 500)
        full = fit_quantile_ladder(data, DCP_LADDER_LEVELS, LINEAR).coef
        part = fit_quantile_ladder(data, DCP_LADDER_LEVELS[picked], LINEAR).coef
        assert_ladders_close(part, full[:, picked], 1e-12)

    def test_step_counts_pinned(self):
        # a count-based guard: a change that adds Newton steps fails here;
        # one that changes the iteration on purpose re-pins these values
        steps = [
            fit_quantile_ladder(scenario_fold(tag, n), DCP_LADDER_LEVELS, LINEAR).iterations
            for n in (500, 60)
            for tag in sim.SCENARIO_TAGS
        ]
        assert steps == [10, 10, 8, 15, 15, 10, 8, 7, 10, 13]

    def test_step_cap_raises_naming_levels(self, monkeypatch):
        monkeypatch.setattr(regress, "QUANTILE_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"did not converge at levels \[0\.01"):
            fit_quantile_ladder(scenario_fold("bimodal", 500), DCP_LADDER_LEVELS, LINEAR)

    def test_each_kind_fits_its_own_type(self):
        # only the linear ladder takes Newton steps
        data = scenario_fold("bimodal", 200)
        knn = fit_quantile_ladder(data, [0.1, 0.9], QuantileConfig(kind="knn-quantile"))
        linear = fit_quantile_ladder(data, [0.1, 0.9], LINEAR)
        assert isinstance(knn, KnnQuantiles) and not hasattr(knn, "iterations")
        assert isinstance(linear, LinearQuantiles) and 1 <= linear.iterations <= QUANTILE_MAX_STEPS


MEDIAN = np.array([0.5])


class TestKnnBlocks:
    @staticmethod
    def unblocked(knn, x):
        """All query rows in one distance tensor, the k nearest by a stable sort:
        of the rows tied at the k-th distance the lowest indices enter, in index order."""
        q = (x - knn.mu) / knn.sd
        d2 = ((q[:, None, :] - knn.xs[None, :, :]) ** 2).sum(axis=2)
        idx = np.sort(np.argsort(d2, kind="stable")[:, : knn.k], axis=1)
        return knn.targets[idx]

    @pytest.mark.parametrize("m", [KNN_BLOCK - 1, KNN_BLOCK, KNN_BLOCK + 1, 2 * KNN_BLOCK + 3])
    def test_blocked_lookup_equals_unblocked(self, m):
        rng = np.random.default_rng(m)
        # integer coordinates with repeated rows: many exact distance ties
        x = rng.integers(-3, 4, size=(60, 2)).astype(float)
        knn = KnnQuantiles(x, rng.standard_normal(60), k=9, levels=MEDIAN)
        queries = rng.integers(-4, 5, size=(m, 2)).astype(float)
        np.testing.assert_array_equal(
            knn.neighbor_targets(queries), self.unblocked(knn, queries)
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ties_at_the_kth_distance_go_to_the_lowest_rows(self, data):
        # integer covariates on a few values: most rows tie with others at the k-th distance
        d = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.integers(1, 400))
        k = data.draw(st.integers(1, n))
        m = data.draw(st.one_of(st.integers(1, 40), st.integers(KNN_BLOCK + 1, 2 * KNN_BLOCK)))
        width = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.integers(0, width, size=(n, d)).astype(float)
        queries = rng.integers(-1, width + 1, size=(m, d)).astype(float)
        knn = KnnQuantiles(x, np.arange(n), k, MEDIAN)  # targets are the fitted row numbers
        np.testing.assert_array_equal(
            knn.neighbor_targets(queries), self.unblocked(knn, queries)
        )


@st.composite
def window_cases(draw, ties):
    """One-column folds of 1-300 rows, any k, and 0 to 2 blocks of queries.

    Tie cases put fitted x on integers (repeated rows) and queries on the
    half-integers, so queries sit on fitted rows or midway between two;
    both kinds reach beyond the fitted range.
    """
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, n))
    m = draw(st.one_of(st.just(0), st.integers(1, 40), st.integers(KNN_BLOCK + 1, 2 * KNN_BLOCK)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if ties:
        x = rng.integers(-5, 6, n).astype(float)
        queries = rng.integers(-16, 17, m) / 2.0
    else:
        x = rng.uniform(-5.0, 5.0, n)
        queries = rng.uniform(-8.0, 8.0, m)
    return x.reshape(-1, 1), queries.reshape(-1, 1), k


class TestKnnWindow:
    """The one-column lookup against every fitted row compared at once."""

    @given(window_cases(ties=False))
    @settings(max_examples=60, deadline=None)
    def test_neighbour_targets_equal_the_unblocked_lookup(self, case):
        x, queries, k = case
        knn = KnnQuantiles(x, np.random.default_rng(0).standard_normal(x.shape[0]), k, MEDIAN)
        got = knn.neighbor_targets(queries)
        assert got.shape == (queries.shape[0], knn.k)
        np.testing.assert_array_equal(
            np.sort(got, axis=1), np.sort(TestKnnBlocks.unblocked(knn, queries), axis=1)
        )

    @given(window_cases(ties=True))
    @settings(max_examples=60, deadline=None)
    def test_ties_go_to_the_lower_sorted_position(self, case):
        x, queries, k = case
        n = x.shape[0]
        knn = KnnQuantiles(x, np.arange(n), k, MEDIAN)  # targets are the fitted row numbers
        rows = knn.neighbor_targets(queries)
        q = (queries - knn.mu) / knn.sd
        d2 = (q - knn.xs[:, 0]) ** 2  # (m, n), fitted rows in input order
        np.testing.assert_array_equal(
            np.sort(np.take_along_axis(d2, rows, axis=1), axis=1),
            np.sort(np.take_along_axis(d2, TestKnnBlocks.unblocked(knn, queries), axis=1), axis=1),
        )
        # the rows are a window [s, s + k) of the stably sorted fitted rows
        rank = np.empty(n, dtype=int)
        rank[np.argsort(knn.xs[:, 0], kind="stable")] = np.arange(n)
        pos = rank[rows]
        start = pos[:, :1]
        np.testing.assert_array_equal(pos, start + np.arange(k))
        dist = np.abs(q - np.sort(knn.xs[:, 0]))  # (m, n) in sorted order

        def nearest(s):
            """Whether window s holds k nearest rows: none outside is strictly closer."""
            inside = (np.arange(n) >= s) & (np.arange(n) < s + k)
            far = np.where(inside, dist, -np.inf).max(axis=1)
            near = np.where(inside, np.inf, dist).min(axis=1)
            return far <= near

        assert nearest(start).all()
        # the valid starts are contiguous, so none lower exists when s - 1 fails
        assert not (nearest(start - 1) & (start[:, 0] > 0)).any()


def quantile_levels():
    """A vector of 1-5 levels, 0 and 1 included."""
    level = st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0))
    return st.lists(level, min_size=1, max_size=5).map(np.array)


class TestKnnWindowQuantiles:
    """With one column every window's quantiles are taken at fit, then indexed."""

    @staticmethod
    def assert_same_bits(knn, queries):
        got = knn.predict(queries)
        want = np.quantile(knn.neighbor_targets(queries), knn.levels, axis=1).T
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(case=st.one_of(window_cases(ties=False), window_cases(ties=True)), levels=quantile_levels())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_quantile_of_the_gathered_neighbours(self, case, levels):
        x, queries, k = case
        knn = KnnQuantiles(x, np.random.default_rng(1).standard_normal(x.shape[0]), k, levels)
        self.assert_same_bits(knn, queries)
        # repeated queries share a window
        self.assert_same_bits(knn, np.vstack([queries, queries[::-2]]))

    @pytest.mark.parametrize("levels", [np.array([0.9]), np.array([0.1, 0.5, 0.9])])
    @pytest.mark.parametrize(
        "queries",
        [np.empty((0, 1)), np.array([[-1e6], [1e6], [0.0], [0.0], [-1e6]])],
        ids=["no-queries", "outside-and-repeated"],
    )
    @pytest.mark.parametrize("k", [1, 7, 40], ids=["k=1", "k=7", "k=n"])
    def test_edge_cases(self, k, queries, levels):
        rng = np.random.default_rng(k)
        x = rng.integers(-3, 4, (40, 1)).astype(float)  # tied x
        self.assert_same_bits(KnnQuantiles(x, rng.standard_normal(40), k, levels), queries)

    def test_two_columns_take_the_blocked_lookup(self):
        rng = np.random.default_rng(2)
        levels = np.array([0.2, 0.8])
        x, targets = rng.standard_normal((60, 2)), rng.standard_normal(60)
        knn = KnnQuantiles(x, targets, k=9, levels=levels)
        assert not hasattr(knn, "windows") and not hasattr(knn, "table")
        self.assert_same_bits(knn, rng.standard_normal((KNN_BLOCK + 5, 2)))

    def test_estimators_predict_through_the_window_table(self):
        data = scenario_fold("heteroscedastic", 300)
        sh = fit_scale(data, fit_mean(data), ScaleConfig(kind="knn-quantile-absres"))
        qe = fit_quantile_ladder(data, [0.05, 0.5, 0.95], QuantileConfig(kind="knn-quantile"))
        x = np.linspace(-6.0, 6.0, 1001).reshape(-1, 1)
        want_scale = np.maximum(
            np.quantile(sh.neighbor_targets(x), sh.levels, axis=1)[0], regress.SCALE_FLOOR
        )
        assert predict_scale(sh, x).tobytes() == want_scale.tobytes()
        want_ladder = np.quantile(qe.neighbor_targets(x), qe.levels, axis=1).T
        assert predict_quantile(qe, x).tobytes() == want_ladder.tobytes()
