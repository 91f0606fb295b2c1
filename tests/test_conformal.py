import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from conformal_hpd import conformal
from conformal_hpd.conformal import (
    DCP_LADDER_LEVELS,
    DcpModel,
    KdeHpdConfig,
    _ladder_quantile,
    KdeHpdPipeline,
    fit_cqr,
    fit_dcp,
    fit_kde_hpd,
    fit_parametric_normal,
    fit_secpr,
    optimal_lower_level,
    predict_region,
    predict_regions,
    secpr_corrections,
)
from conformal_hpd.core import (
    Dataset,
    RegionBatch,
    ScoreVector,
    SplitPlan,
    conformal_q,
    conformal_r,
    region_contains,
    region_length,
)
from conformal_hpd.hpd import HpdResult
from conformal_hpd.sim import fit_method
from conformal_hpd.regress import (
    MeanEstimator,
    QuantileConfig,
    QuantileEstimator,
    ScaleConfig,
    ScaleEstimator,
    _Knn,
    predict_quantile,
)


def make_line_data(rng, n, noise_fn):
    x = rng.uniform(-5, 5, n).reshape(-1, 1)
    y = 5.0 + 2.0 * x[:, 0] + noise_fn(n)
    return Dataset(x, y)


def half_split(n):
    idx = np.arange(n)
    return SplitPlan(
        idx_train1=idx[: n // 2], idx_train2=[], idx_cal=idx[n // 2 :],
    )


def exact_secpr_coverage(n_cal, alpha1, alpha2):
    """Rank-enumeration oracle: P(covered) for continuous scores.

    The test score's rank r among the n_cal + 1 pooled values is uniform;
    the interval covers exactly when k_R < r <= k_Q.
    """
    k_r = math.ceil(alpha1 * (n_cal + 1) - 1.0)
    k_q = math.ceil((1.0 - alpha2) * (n_cal + 1))
    hits = sum(1 for r in range(1, n_cal + 2) if k_r < r <= max(k_q, 0))
    return hits / (n_cal + 1)


class TestKdeHpdPipeline:
    def test_unimodal_symmetric_recovers_normal_interval(self):
        rng = np.random.default_rng(40)
        data = make_line_data(rng, 1000, lambda n: rng.standard_normal(n))
        pipe = fit_kde_hpd(data, half_split(1000), alpha=0.1)
        assert pipe.n_intervals == 1
        eta, gamma = pipe.eta_gamma[0]
        assert eta == pytest.approx(-1.645, abs=0.2)
        assert gamma == pytest.approx(1.645, abs=0.2)

    def test_bimodal_detects_two_intervals(self):
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            comp = rng.random(1000) < 0.5
            noise = lambda n: rng.normal(np.where(comp, -6.0, 6.0), 1.0)
            data = make_line_data(rng, 1000, noise)
            pipe = fit_kde_hpd(data, half_split(1000), alpha=0.1)
            hits += pipe.n_intervals == 2
        assert hits >= 28

    def test_reduces_to_secpr_when_unimodal(self):
        rng = np.random.default_rng(42)
        data = make_line_data(rng, 600, lambda n: rng.standard_normal(n))
        pipe = fit_kde_hpd(data, half_split(600), alpha=0.1)
        assert pipe.n_intervals == 1
        a1, b1 = pipe.hpd.pairs[0]
        eta = conformal_r(pipe.scores, a1)
        gamma = conformal_q(pipe.scores, 1.0 - b1)
        assert pipe.eta_gamma[0] == (eta, gamma)
        x = np.array([[1.5]])
        from conformal_hpd.regress import predict_mean

        g = predict_mean(pipe.gh, x)[0]
        region = predict_region(pipe, x)
        assert region.intervals[0][0] == g + eta
        assert region.intervals[0][1] == g + gamma

    def test_constant_scale_trains_the_mean_on_both_folds(self):
        # with the constant-one scale, a non-empty train2 joins the mean
        # fit exactly as in SECPR, and the criterion-9 reduction holds
        rng = np.random.default_rng(44)
        data = make_line_data(rng, 1000, lambda n: rng.standard_normal(n))
        plan = SplitPlan.sequential(np.arange(1000), 300, 200)
        pipe = fit_kde_hpd(data, plan, 0.1)
        assert pipe.n_intervals == 1
        a1, b1 = pipe.hpd.pairs[0]
        secpr = fit_secpr(data, plan, a1, b1)
        np.testing.assert_array_equal(pipe.gh.coef, secpr.gh.coef)
        np.testing.assert_array_equal(pipe.scores.v, secpr.scores.v)
        assert pipe.eta_gamma[0] == secpr_corrections(pipe.scores, a1, b1)
        assert pipe.eta_gamma[0] == (secpr.lower, secpr.upper)

    def test_empty_folds_rejected(self):
        rng = np.random.default_rng(43)
        data = make_line_data(rng, 20, lambda n: rng.standard_normal(n))
        with pytest.raises(ValueError, match="no calibration scores"):
            fit_kde_hpd(
                data,
                SplitPlan(idx_train1=np.arange(10), idx_train2=[], idx_cal=[]),
                0.1,
            )
        with pytest.raises(ValueError, match="scale fold is empty"):
            fit_kde_hpd(
                data,
                half_split(20),
                0.1,
                KdeHpdConfig(scale=ScaleConfig(kind="knn-quantile-absres")),
            )


def stub_pipeline(center, scale_coef, eta_gamma):
    gh = MeanEstimator(d=1, coef=np.array([center, 0.0]))
    # every neighbour's target is scale_coef, so the scale is scale_coef everywhere
    x_fit = np.linspace(-5, 5, 20).reshape(-1, 1)
    knn = _Knn(x_fit, np.full(20, scale_coef), 10)
    sh = ScaleEstimator(kind="knn-quantile-absres", d=1, knn=knn)
    scores = ScoreVector(np.linspace(-2, 2, 9))
    hpd = HpdResult(lambda_hat=0.1, intervals=((-1, 1),), pairs=((0.05, 0.05),), alpha=0.1)
    return KdeHpdPipeline(
        gh=gh, sh=sh, scores=scores, hpd=hpd, eta_gamma=eta_gamma, alpha=0.1
    )


class TestPredictRegion:
    def test_affine_map(self):
        pipe = stub_pipeline(9.0, 1.0, ((-1.65, 1.65),))
        region = predict_region(pipe, [[0.0]])
        assert region.intervals[0] == pytest.approx((7.35, 10.65))

    def test_scale_doubles_length(self):
        narrow = stub_pipeline(9.0, 1.0, ((-1.65, 1.65),))
        wide = stub_pipeline(9.0, 2.0, ((-1.65, 1.65),))
        assert region_length(predict_region(wide, [[0.0]])) == pytest.approx(
            2 * region_length(predict_region(narrow, [[0.0]]))
        )

    def test_overlapping_mapped_intervals_coalesce(self):
        pipe = stub_pipeline(0.0, 1.0, ((-1.0, 0.5), (0.2, 1.0)))
        region = predict_region(pipe, [[0.0]])
        assert region.intervals == ((-1.0, 1.0),)

    def test_batch_matches_single(self):
        pipe = stub_pipeline(1.0, 1.0, ((-1.0, 1.0),))
        xs = np.array([[0.0], [2.0], [5.0]])
        batch = predict_regions(pipe, xs)
        for row, reg in zip(xs, batch):
            assert predict_region(pipe, row[None, :]).intervals == reg.intervals


class TestSecpr:
    def test_order_statistic_interval(self):
        scores = ScoreVector(np.arange(1.0, 100.0))
        lower, upper = secpr_corrections(scores, 0.05, 0.05)
        assert (lower, upper) == (4.0, 95.0)

    def test_zero_lower_budget_clamps(self):
        scores = ScoreVector(np.arange(1.0, 100.0))
        lower, upper = secpr_corrections(scores, 0.0, 0.1)
        assert lower == -math.inf
        assert upper == 90.0

    def test_exact_coverage_at_19(self):
        assert exact_secpr_coverage(19, 0.05, 0.05) == pytest.approx(19 / 20)

    def test_simulated_coverage_matches_enumeration(self):
        n_cal, a1, a2, reps = 19, 0.05, 0.05, 400
        target = exact_secpr_coverage(n_cal, a1, a2)
        rng = np.random.default_rng(77)
        hits = 0
        total = 0
        for _ in range(reps):
            v = rng.standard_normal(n_cal)
            scores = ScoreVector(v)
            lo, hi = secpr_corrections(scores, a1, a2)
            fresh = rng.standard_normal(5)
            hits += int(((fresh >= lo) & (fresh <= hi)).sum())
            total += 5
        se = math.sqrt(target * (1 - target) / total)
        assert abs(hits / total - target) <= 3 * se

    def test_flipped_scores_give_identical_interval(self):
        # The same interval through negated scores and mirrored ranks: the
        # k-th smallest of v is minus the (n + 1 - k)-th smallest of -v.
        # The ranks here use round(., 9) before ceil, not _ceil_index.
        def mirrored_order_stat(flipped_sorted, k):
            n = flipped_sorted.size
            m = n + 1 - k
            if m < 1:
                return math.inf
            if m > n:
                return -math.inf
            return -float(flipped_sorted[m - 1])

        rng = np.random.default_rng(88)
        for alpha1, alpha2 in [(0.05, 0.05), (0.02, 0.08), (0.0, 0.1), (0.3, 0.0)]:
            data = make_line_data(rng, 300, lambda n: rng.standard_normal(n))
            plan = half_split(300)
            direct = fit_secpr(data, plan, alpha1, alpha2)
            flipped = np.sort(-direct.scores.v)
            n = direct.scores.n
            k_lower = math.ceil(round(alpha1 * (n + 1) - 1.0, 9))
            k_upper = math.ceil(round((1.0 - alpha2) * (n + 1), 9))
            assert direct.lower == mirrored_order_stat(flipped, k_lower)
            assert direct.upper == mirrored_order_stat(flipped, k_upper)


class TestCqr:
    def test_exact_quantiles_give_near_zero_correction(self):
        rng = np.random.default_rng(50)
        y = rng.standard_normal(5000)
        qlo, qhi = norm.ppf(0.05), norm.ppf(0.95)
        scores = ScoreVector(np.maximum(qlo - y, y - qhi))
        correction = conformal_q(scores, 0.9)
        assert abs(correction) < 0.05

    def test_interval_orientation_and_coverage_one_shot(self):
        rng = np.random.default_rng(51)
        data = make_line_data(rng, 1000, lambda n: rng.standard_normal(n))
        model = fit_cqr(data, half_split(1000), 0.1, QuantileConfig(kind="knn-quantile"))
        x_test = rng.uniform(-5, 5, 500).reshape(-1, 1)
        y_test = 5.0 + 2.0 * x_test[:, 0] + rng.standard_normal(500)
        regions = predict_regions(model, x_test)
        covered = np.mean(
            [region_contains(r, yi) for r, yi in zip(regions, y_test)]
        )
        assert 0.85 <= covered <= 0.96

    def test_degenerate_band_never_inverts(self):
        # constant response collapses the quantile band; the region must
        # come back empty or as a valid interval, never inverted
        x = np.linspace(0, 1, 40).reshape(-1, 1)
        data = Dataset(x, np.zeros(40))
        plan = half_split(40)
        fitted = fit_cqr(data, plan, 0.1, QuantileConfig(kind="knn-quantile"))
        region = predict_region(fitted, np.array([[0.5]]))
        assert region.is_empty or region_length(region) >= 0.0


class TestDcp:
    def test_symmetric_normal_centers_the_window(self):
        qmat = norm.ppf(DCP_LADDER_LEVELS).reshape(1, -1)
        b_hat = optimal_lower_level(qmat, DCP_LADDER_LEVELS, 0.10)
        assert b_hat[0] == pytest.approx(0.05, abs=1e-12)

    def test_right_skew_shifts_window_left(self):
        qmat = gamma_dist.ppf(DCP_LADDER_LEVELS, a=7.5, scale=1.0).reshape(1, -1)
        b_hat = optimal_lower_level(qmat, DCP_LADDER_LEVELS, 0.10)
        assert b_hat[0] < 0.05
        # oracle: direct grid minimization over the analytic quantiles;
        # ladder interpolation bias can move the argmin by one step
        zs = np.linspace(0, 0.10, 21)
        widths = gamma_dist.ppf(zs + 0.9, a=7.5) - gamma_dist.ppf(zs, a=7.5)
        assert b_hat[0] == pytest.approx(zs[widths.argmin()], abs=0.005 + 1e-12)

    def test_exact_cdf_limit_recovers_true_quantiles(self):
        rng = np.random.default_rng(60)
        data = make_line_data(rng, 4000, lambda n: rng.standard_normal(n))
        model = fit_dcp(
            data,
            half_split(4000),
            0.10,
            QuantileConfig(kind="linear-quantile"),
        )
        region = predict_region(model, np.array([[0.0]]))
        lo, hi = region.intervals[0]
        assert lo == pytest.approx(5.0 + norm.ppf(0.05), abs=0.25)
        assert hi == pytest.approx(5.0 + norm.ppf(0.95), abs=0.25)

    def test_per_row_levels_match_the_scalar_interpolation(self):
        def scalar(qmat, levels, tau):
            if tau <= levels[0]:
                return qmat[:, 0]
            if tau >= levels[-1]:
                return qmat[:, -1]
            j = int(np.searchsorted(levels, tau))
            if levels[j] == tau:
                return qmat[:, j]
            w = (tau - levels[j - 1]) / (levels[j] - levels[j - 1])
            return (1.0 - w) * qmat[:, j - 1] + w * qmat[:, j]

        rng = np.random.default_rng(62)
        qmat = np.cumsum(rng.exponential(size=(40, DCP_LADDER_LEVELS.size)), axis=1)
        tau = np.concatenate(
            [
                rng.uniform(-0.1, 1.1, 30),
                DCP_LADDER_LEVELS[[0, 1, 50, -1]],
                [-math.inf, math.inf, 0.005, 0.995, 0.0, 1.0],
            ]
        )
        expected = [scalar(qmat[i : i + 1], DCP_LADDER_LEVELS, t)[0] for i, t in enumerate(tau)]
        np.testing.assert_array_equal(_ladder_quantile(qmat, DCP_LADDER_LEVELS, tau), expected)
        grid = tau[None, :]  # every level at every row, as the DCP window search asks
        expected = np.column_stack([scalar(qmat, DCP_LADDER_LEVELS, t) for t in tau])
        np.testing.assert_array_equal(_ladder_quantile(qmat, DCP_LADDER_LEVELS, grid), expected)

    def test_region_is_always_single_interval(self):
        rng = np.random.default_rng(61)
        comp = rng.random(800) < 0.5
        data = make_line_data(
            rng, 800, lambda n: rng.normal(np.where(comp, -6.0, 6.0), 1.0)
        )
        model = fit_dcp(data, half_split(800), 0.10)
        for x in np.linspace(-5, 5, 7):
            assert len(predict_region(model, np.array([[x]]))) == 1


@st.composite
def dcp_models(draw):
    """A DCP model over a random, often crossing, linear ladder, and 20 covariate rows.

    Ladder levels that cross become flat segments under the running max;
    rounded coefficients add runs of equal knots. The cutoff ties with the
    score of every response beyond the ladder when it is 1.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_levels = DCP_LADDER_LEVELS.size
    coef = np.vstack([
        np.cumsum(rng.normal(0.05, 0.1, n_levels)),
        np.cumsum(rng.normal(0.0, 0.05, n_levels)),
        rng.normal(0.0, 0.02, n_levels),
    ])
    if draw(st.booleans()):
        coef = np.round(coef, 1)
    ladder = QuantileEstimator(
        kind="linear-quantile", d=1, levels=DCP_LADDER_LEVELS, coef=coef,
        scale_mu=np.zeros(3), scale_sd=np.ones(3),
    )
    alpha = draw(st.floats(0.01, 0.99))
    cutoff = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True), st.just(1.0), st.just(math.inf)
    ))
    return DcpModel(ladder=ladder, alpha=alpha, cutoff=cutoff), rng.uniform(-2.0, 2.0, (20, 1))


class TestDcpSublevelSet:
    @given(dcp_models())
    @settings(max_examples=150, deadline=None)
    def test_region_is_the_score_sublevel_set(self, case):
        model, x = case
        qmat = np.maximum.accumulate(predict_quantile(model.ladder, x), axis=1)
        center = optimal_lower_level(qmat, DCP_LADDER_LEVELS, model.alpha) + 0.5 * (1 - model.alpha)
        _, _, lo, hi = model.predict_regions(x).flat()
        rng = np.random.default_rng(0)
        first, last = qmat[:, :1], qmat[:, -1:]
        ys = np.hstack([
            qmat,  # every knot, flat runs included
            np.nextafter(first, -np.inf), first - 1.0,  # beyond the ladder
            np.nextafter(last, np.inf), last + 1.0,
            rng.uniform(first - 1.0, last + 1.0, (x.shape[0], 20)),
        ])
        # a window end within rounding of a level leaves a knot's side to rounding
        ends = np.column_stack([center - model.cutoff, center + model.cutoff])
        near = (np.abs(ends[:, :, None] - DCP_LADDER_LEVELS) < 1e-9).any(axis=(1, 2))
        checked = np.ones(ys.shape, dtype=bool)
        checked[near, : qmat.shape[1]] = False
        per_y = ys.shape[1]  # one score call: every candidate y against its own row
        scores = model.score(np.repeat(x, per_y, axis=0), ys.ravel()).reshape(ys.shape)
        assert ((0.0 <= scores) & (scores <= 1.0)).all()
        assert (scores[:, qmat.shape[1] : qmat.shape[1] + 4] == 1.0).all()  # beyond the ladder
        inside = (lo[:, None] <= ys) & (ys <= hi[:, None])
        np.testing.assert_array_equal(inside[checked], (scores <= model.cutoff)[checked])

    def test_tiny_calibration_fold_gives_the_whole_line(self):
        # five calibration scores: the 0.9 conformal quantile is +inf
        rng = np.random.default_rng(63)
        data = make_line_data(rng, 105, lambda n: rng.standard_normal(n))
        idx = np.arange(105)
        model = fit_dcp(data, SplitPlan(idx[:100], [], idx[100:]), 0.10)
        assert model.cutoff == math.inf
        region = predict_region(model, np.array([[0.0]]))
        assert region.intervals == ((-math.inf, math.inf),)

    def test_calibration_beyond_the_ladder_never_conforms(self):
        rng = np.random.default_rng(64)
        data = make_line_data(rng, 400, lambda n: rng.standard_normal(n))
        model = fit_dcp(data, half_split(400), 0.10)
        x = np.zeros((2, 1))
        band = predict_quantile(model.ladder, x)
        y = np.array([band[0, 0] - 1.0, band[1, -1] + 1.0])
        np.testing.assert_array_equal(model.score(x, y), [1.0, 1.0])
        lo, hi = predict_region(model, x[:1]).intervals[0]
        assert lo >= band[0, 0] and hi <= band[0, -1]


class TestParametricNormal:
    def test_noiseless_line_degenerates(self):
        x = np.linspace(-5, 5, 60).reshape(-1, 1)
        data = Dataset(x, 5.0 + 2.0 * x[:, 0])
        model = fit_parametric_normal(data, 0.1)
        region = predict_region(model, np.array([[1.0]]))
        assert region.intervals[0][0] == pytest.approx(7.0, abs=1e-7)
        assert region.intervals[0][1] == pytest.approx(7.0, abs=1e-7)

    def test_half_width_approaches_z_times_s(self):
        rng = np.random.default_rng(70)
        data = make_line_data(rng, 4000, lambda n: rng.standard_normal(n))
        model = fit_parametric_normal(data, 0.1)
        region = predict_region(model, np.array([[0.0]]))
        half = 0.5 * region_length(region)
        assert half == pytest.approx(norm.ppf(0.95) * model.s, rel=1e-3)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
    def test_half_widths_match_norm_ppf_bitwise(self, alpha):
        rng = np.random.default_rng(72)
        data = make_line_data(rng, 200, lambda n: rng.standard_normal(n))
        model = fit_parametric_normal(data, alpha)
        xs = np.array([[-4.0], [-0.5], [0.0], [1.25], [3.5]])
        design = np.column_stack([np.ones(len(xs)), xs])
        center = design @ model.coef
        leverage = np.einsum("ij,jk,ik->i", design, model.xtx_inv, design)
        half = norm.ppf(1.0 - alpha / 2.0) * model.s * np.sqrt(1.0 + leverage)
        batch = predict_regions(model, xs)
        assert repr(batch.lo[:, 0].tolist()) == repr((center - half).tolist())
        assert repr(batch.hi[:, 0].tolist()) == repr((center + half).tolist())

    def test_marginal_coverage_monte_carlo(self):
        rng = np.random.default_rng(71)
        hits, total = 0, 0
        for _ in range(50):
            data = make_line_data(rng, 1000, lambda n: rng.standard_normal(n))
            model = fit_parametric_normal(data, 0.1)
            x_new = rng.uniform(-5, 5, 50).reshape(-1, 1)
            y_new = 5.0 + 2.0 * x_new[:, 0] + rng.standard_normal(50)
            for r, yi in zip(predict_regions(model, x_new), y_new):
                hits += region_contains(r, yi)
                total += 1
        assert hits / total == pytest.approx(0.90, abs=0.02)


METHODS = ["kde-hpd", "secpr", "cqr", "dcp", "parametric"]


def fit_by_method(method, ds, plan):
    if method == "kde-hpd":
        return fit_kde_hpd(ds, plan, 0.1)
    if method == "secpr":
        return fit_secpr(ds, plan, 0.05, 0.05)
    if method == "cqr":
        return fit_cqr(ds, plan, 0.1, QuantileConfig(kind="knn-quantile"))
    if method == "dcp":
        return fit_dcp(ds, plan, 0.1)
    return fit_parametric_normal(ds, 0.1)


class TestSharedInvariants:
    @pytest.mark.parametrize("method", METHODS)
    def test_translation_equivariance(self, method):
        rng = np.random.default_rng(80)
        data = make_line_data(rng, 400, lambda n: rng.standard_normal(n))
        shift = 37.5
        shifted = Dataset(data.x, data.y + shift)
        plan = half_split(400)
        x_probe = np.array([[1.25]])

        def fit_and_predict(ds):
            return predict_region(fit_by_method(method, ds, plan), x_probe)

        base = fit_and_predict(data)
        moved = fit_and_predict(shifted)
        assert len(base) == len(moved)
        for (lo0, hi0), (lo1, hi1) in zip(base, moved):
            assert lo1 - lo0 == pytest.approx(shift, abs=1e-7)
            assert hi1 - hi0 == pytest.approx(shift, abs=1e-7)

    def test_kde_hpd_scale_equivariance(self):
        rng = np.random.default_rng(81)
        data = make_line_data(rng, 500, lambda n: rng.standard_normal(n))
        c = 3.0
        scaled = Dataset(data.x, data.y * c)
        plan = half_split(500)
        base = predict_region(fit_kde_hpd(data, plan, 0.1), np.array([[0.5]]))
        up = predict_region(fit_kde_hpd(scaled, plan, 0.1), np.array([[0.5]]))
        assert len(base) == len(up)
        for (lo0, hi0), (lo1, hi1) in zip(base, up):
            assert lo1 == pytest.approx(c * lo0, rel=1e-7)
            assert hi1 == pytest.approx(c * hi0, rel=1e-7)


class TestRegionBatchResults:
    @pytest.mark.parametrize("method", METHODS)
    def test_predict_regions_returns_a_batch_of_row_views(self, method):
        rng = np.random.default_rng(91)
        data = make_line_data(rng, 200, lambda n: rng.standard_normal(n))
        model = fit_by_method(method, data, half_split(200))
        xs = np.array([[-2.0], [0.5], [3.0]])
        batch = predict_regions(model, xs)
        assert isinstance(batch, RegionBatch) and len(batch) == 3
        for row, region in zip(xs, batch):
            single = predict_region(model, row[None, :])
            assert len(single) == len(region) > 0
            np.testing.assert_allclose(single.intervals, region.intervals, rtol=1e-12)


class TestNonFiniteCovariates:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("method", METHODS)
    def test_predict_regions_rejects_non_finite_rows(self, method, bad):
        rng = np.random.default_rng(90)
        data = make_line_data(rng, 200, lambda n: rng.standard_normal(n))
        model = fit_by_method(method, data, half_split(200))
        with pytest.raises(ValueError, match="finite"):
            predict_regions(model, np.array([[0.5], [bad]]))


class TestAlphaValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2, math.nan])
    @pytest.mark.parametrize("method", METHODS)
    def test_every_fit_rejects_alpha_outside_the_unit_interval(self, method, alpha, monkeypatch):
        rng = np.random.default_rng(92)
        data = make_line_data(rng, 200, lambda n: rng.standard_normal(n))

        def no_fitting(*args, **kwargs):
            raise AssertionError("fitted before checking alpha")

        for name in ("fit_mean", "fit_quantile_ladder", "_ols"):
            monkeypatch.setattr(conformal, name, no_fitting)
        # secpr gets alpha / 2 on each side, as the benchmark splits it
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            fit_method(method, data, half_split(200), alpha, False)

    @pytest.mark.parametrize("alpha1, alpha2", [(-0.05, 0.5), (0.5, -0.05), (0.6, 0.4)])
    def test_secpr_checks_each_tail_budget(self, alpha1, alpha2):
        rng = np.random.default_rng(93)
        data = make_line_data(rng, 100, lambda n: rng.standard_normal(n))
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            fit_secpr(data, half_split(100), alpha1, alpha2)
