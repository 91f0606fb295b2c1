import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from conformal_hpd import conformal, sim
from conformal_hpd.conformal import (
    DCP_LADDER_LEVELS,
    CqrModel,
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
    predict_regions,
)
from conformal_hpd.core import (
    Dataset,
    RegionBatch,
    SplitPlan,
    conformal_q,
    conformal_r,
    region_contains,
    region_length,
)
from conformal_hpd.kde import binned_kde
from conformal_hpd.sim import fit_method
from conformal_hpd.regress import (
    KnnQuantiles,
    LinearQuantiles,
    MeanEstimator,
    ScaleConfig,
    predict_mean,
    predict_quantile,
    predict_scale,
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


def bimodal_noise(rng):
    return lambda n: rng.normal(np.where(rng.random(n) < 0.5, -6.0, 6.0), 1.0)


class TestKdeHpdPipeline:
    def test_unimodal_symmetric_recovers_normal_interval(self):
        # a KDE wiggle may split the level set, but it spans the normal interval
        rng = np.random.default_rng(40)
        data = make_line_data(rng, 1000, lambda n: rng.standard_normal(n))
        pipe = fit_kde_hpd(data, half_split(1000), alpha=0.1)
        assert pipe.intervals[0, 0] == pytest.approx(-1.645, abs=0.2)
        assert pipe.intervals[-1, 1] == pytest.approx(1.645, abs=0.2)
        assert np.sum(pipe.intervals[:, 1] - pipe.intervals[:, 0]) == pytest.approx(3.29, abs=0.2)

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

    def test_cutoff_is_the_conformal_quantile_of_its_own_scores(self):
        rng = np.random.default_rng(42)
        data = make_line_data(rng, 600, lambda n: rng.standard_normal(n))
        plan = half_split(600)
        pipe = fit_kde_hpd(data, plan, alpha=0.1)
        cal = data.subset(plan.idx_cal)
        assert pipe.cutoff == conformal_q(pipe.score(cal.x, cal.y), 0.9)
        x = np.array([[1.5]])
        g = predict_mean(pipe.gh, x)[0]
        region = predict_regions(pipe, x)[0]
        np.testing.assert_array_equal(region.intervals, g + pipe.intervals)

    def test_constant_scale_trains_mean_and_density_on_both_folds(self):
        # with the constant-one scale, a non-empty train2 joins the mean fit
        # exactly as in SECPR, and its scores join the density's
        rng = np.random.default_rng(44)
        data = make_line_data(rng, 1000, lambda n: rng.standard_normal(n))
        plan = SplitPlan.sequential(np.arange(1000), 300, 200)
        pipe = fit_kde_hpd(data, plan, 0.1)
        secpr = fit_secpr(data, plan, 0.1)
        np.testing.assert_array_equal(pipe.gh.coef, secpr.gh.coef)
        train = data.subset(np.arange(500))
        grid, density = binned_kde(train.y - predict_mean(secpr.gh, train.x))
        np.testing.assert_array_equal(pipe.grid, grid)
        np.testing.assert_array_equal(pipe.density, density)

    def test_fitted_scale_trains_the_density_on_train2(self):
        rng = np.random.default_rng(45)
        data = make_line_data(rng, 600, lambda n: rng.standard_normal(n))
        plan = SplitPlan.sequential(np.arange(600), 200, 200)
        scale = ScaleConfig(kind="knn-quantile-absres")
        pipe = fit_kde_hpd(data, plan, 0.1, KdeHpdConfig(scale=scale))
        fold2 = data.subset(plan.idx_train2)
        s = (fold2.y - predict_mean(pipe.gh, fold2.x)) / predict_scale(pipe.sh, fold2.x)
        np.testing.assert_array_equal(pipe.density, binned_kde(s)[1])

    def test_tiny_calibration_fold_gives_the_whole_line(self):
        # five calibration scores: the 0.9 conformal quantile is +inf
        rng = np.random.default_rng(46)
        data = make_line_data(rng, 105, lambda n: rng.standard_normal(n))
        idx = np.arange(105)
        pipe = fit_kde_hpd(data, SplitPlan(idx[:100], [], idx[100:]), 0.1)
        assert pipe.cutoff == math.inf and pipe.n_intervals == 1
        assert predict_regions(pipe, np.array([[0.0]]))[0].intervals == ((-math.inf, math.inf),)

    def test_level_set_built_once(self, monkeypatch):
        # not at fit, where the cutoff is not yet known, and not again when
        # the regions are read a second time
        calls = []
        level_set = conformal.interpolated_level_set
        monkeypatch.setattr(
            conformal, "interpolated_level_set", lambda *a: calls.append(a) or level_set(*a)
        )
        scn = sim.Scenario("bimodal", n_train=200, n_cal=200, seed=1)
        draw = sim.generate(scn)
        pipe = sim.fit_draw(scn, "kde-hpd", draw, False)
        first, second = (predict_regions(pipe, draw[1].x) for _ in range(2))
        assert len(calls) == 1 and calls[0][2] == -pipe.cutoff
        assert pipe.n_intervals == 2 and first.lo.tobytes() == second.lo.tobytes()

    def test_empty_folds_rejected(self):
        rng = np.random.default_rng(43)
        data = make_line_data(rng, 20, lambda n: rng.standard_normal(n))
        with pytest.raises(ValueError, match="calibration fold is empty"):
            fit_kde_hpd(
                data,
                SplitPlan(idx_train1=np.arange(10), idx_train2=[], idx_cal=[]),
                0.1,
            )
        with pytest.raises(ValueError, match="scale fold is empty: split of 10/0/10 rows to train1/train2/cal"):
            fit_kde_hpd(
                data,
                half_split(20),
                0.1,
                KdeHpdConfig(scale=ScaleConfig(kind="knn-quantile-absres")),
            )


def leave_one_out_hits(data, idx_train, pool, alpha, method="kde-hpd", scale_on=False):
    """Times each pooled row is covered by the fit calibrated on the other rows, and the pool's scores.

    Every fit trains on the same rows, so each must give the pool the same
    scores, which is checked here.
    """
    n1 = idx_train.size // 2 if scale_on else idx_train.size
    held = data.subset(pool)
    hits, scores = 0, None
    for j in range(pool.size):
        plan = SplitPlan(idx_train[:n1], idx_train[n1:], np.delete(pool, j))
        model = fit_method(method, data, plan, alpha, scale_on)
        fold_scores = model.score(held.x, held.y)
        scores = fold_scores if scores is None else scores
        np.testing.assert_array_equal(fold_scores, scores)
        hits += region_contains(predict_regions(model, held.x[j : j + 1])[0], held.y[j])
    return hits, scores


def rank_count(n_cal, alpha):
    """Rows of n_cal + 1 exchangeable ones that split conformal covers: k, or all of them when k > n_cal.

    k = ceil((1 - alpha)(n_cal + 1)), a product within 1e-9 of an integer
    snapped to it as conformal_q snaps it. It is worked out here rather than
    read from conformal_q, so an index off by one there shows as a count off by one.
    """
    return min(snapped_ceil((1.0 - alpha) * (n_cal + 1)), n_cal + 1)


def snapped_ceil(x):
    """ceil(x), with an x within 1e-9 of an integer snapped to it, as conformal_q and conformal_r snap."""
    return round(x) if abs(x - round(x)) < 1e-9 else math.ceil(x)


def rank_hits(scores, alpha):
    """Pooled rows whose score is at most the k-th smallest of the other rows' (k as in rank_count).

    With distinct scores this is rank_count; tied scores can add rows.
    """
    n = scores.size - 1
    k = rank_count(n, alpha)
    if k > n:
        return n + 1
    return sum(int(np.sort(np.delete(scores, j))[k - 1] >= scores[j]) for j in range(n + 1))


def secpr_hits(data, idx_train, pool, alpha):
    """Times each pooled row is covered by SECPR calibrated on the other rows, and the pool's signed errors.

    Each count is checked against the two order statistics of the other rows'
    errors that bound the row's own error, ties included.
    """
    held = data.subset(pool)
    hits, errors = 0, None
    for j in range(pool.size):
        model = fit_secpr(data, SplitPlan(idx_train, [], np.delete(pool, j)), alpha)
        errors = held.y - predict_mean(model.gh, held.x) if errors is None else errors
        hit = region_contains(predict_regions(model, held.x[j : j + 1])[0], held.y[j])
        others = np.sort(np.delete(errors, j))
        k_r = snapped_ceil(alpha / 2 * pool.size - 1.0)
        k_q = snapped_ceil((1 - alpha / 2) * pool.size)
        lower = others[k_r - 1] if k_r >= 1 else -np.inf
        upper = others[k_q - 1] if k_q <= others.size else np.inf
        assert hit == (lower <= errors[j] <= upper)
        hits += hit
    return hits, errors


class TestRankCoverage:
    """The score is fixed by the training fold, so coverage is a rank count.

    Among n + 1 rows with distinct scores, the row held out is covered
    exactly when its score is within the k-th smallest of the others, k
    being conformal_q's index; over the n + 1 choices that is k rows, or
    all of them when k > n and the cutoff is infinite. Tied scores, as of
    responses beyond DCP's ladder (all 1.0) or off kde-hpd's grid (all 0),
    count by the same ranks.
    """

    @pytest.mark.parametrize("method", ["kde-hpd", "cqr", "dcp"])
    @pytest.mark.parametrize("n_cal, alpha", [(19, 0.1), (20, 0.1), (9, 0.25), (30, 0.05), (5, 0.1)])
    def test_rank_enumeration_is_exact(self, method, n_cal, alpha):
        rng = np.random.default_rng(47)
        data = make_line_data(rng, 400 + n_cal + 1, bimodal_noise(rng))
        idx = np.arange(data.n)
        hits, scores = leave_one_out_hits(data, idx[:400], idx[400:], alpha, method)
        assert np.unique(scores).size == n_cal + 1  # premise: distinct scores
        assert hits == rank_count(n_cal, alpha)

    @given(
        method=st.sampled_from(["kde-hpd", "cqr", "dcp"]),
        tag=st.sampled_from(sim.SCENARIO_TAGS),
        alpha=st.floats(0.01, 0.5),
        n_cal=st.integers(1, 20),
        far=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_calibration_folds_on_every_scenario(self, method, tag, alpha, n_cal, far, seed):
        scn = sim.Scenario(tag, n_train=60, n_cal=n_cal + 1, n_test=1, alpha=alpha, seed=seed)
        observed, _, _ = sim.generate(scn)
        # the first ``far`` pooled responses lie far beyond any fitted band, ladder or grid
        y = observed.y.copy()
        y[60 : 60 + far] += np.resize([1e3, -1e3], min(far, n_cal + 1))
        data = Dataset(observed.x, y)
        idx = np.arange(data.n)
        hits, scores = leave_one_out_hits(
            data, idx[:60], idx[60:], alpha, method, sim.use_scale(None, tag)
        )
        if far <= n_cal:  # premise: the far rows score above every other row
            assert scores[:far].min(initial=np.inf) >= scores[far:].max()
        assert hits == rank_hits(scores, alpha)
        if np.unique(scores).size == n_cal + 1:
            assert hits == rank_count(n_cal, alpha)

    @given(
        method=st.sampled_from([("kde-hpd", False), ("kde-hpd", True), ("cqr", False), ("dcp", False)]),
        d=st.integers(1, 2),
        alpha=st.floats(0.001, 0.99),
        offset=st.sampled_from([0.0, 1e9]),
        noise=st.sampled_from(["normal", "bimodal", "cauchy"]),
        n_cal=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_count_at_the_edges(self, method, d, alpha, offset, noise, n_cal, seed):
        """Multi-column covariates, alpha near 0 or 1, a response offset of 1e9 and heavy tails."""
        rng = np.random.default_rng(seed)
        n = 60 + n_cal + 1
        x = rng.uniform(-5.0, 5.0, (n, d))
        eps = {
            "normal": rng.standard_normal,
            "bimodal": bimodal_noise(rng),
            "cauchy": rng.standard_cauchy,
        }[noise](n)
        data = Dataset(x, offset + 5.0 + x @ np.array([2.0, -1.0])[:d] + eps)
        idx = np.arange(n)
        tag, scale_on = method
        hits, scores = leave_one_out_hits(data, idx[:60], idx[60:], alpha, tag, scale_on)
        assert hits == rank_hits(scores, alpha)

    @pytest.mark.parametrize(
        "method", [("kde-hpd", False), ("kde-hpd", True), ("secpr", False), ("cqr", False), ("dcp", False)]
    )
    @pytest.mark.parametrize("offset, noise", [(3.0, 0.0), (1e9, 1e-6)])
    def test_rank_count_with_tied_responses(self, method, offset, noise):
        """Constant responses, and responses at 1e9 whose noise is a few ulps: the scores tie.

        A row whose score ties with the cutoff lies in its own region, so every
        tie counts by rank_hits; with constant responses that is every row.
        """
        rng = np.random.default_rng(0)
        x = rng.uniform(-5.0, 5.0, (60, 1))
        data = Dataset(x, offset + noise * rng.standard_normal(60))
        idx = np.arange(60)
        tag, scale_on = method
        if tag == "secpr":
            hits, scores = secpr_hits(data, idx[:30], idx[30:], 0.1)
        else:
            hits, scores = leave_one_out_hits(data, idx[:30], idx[30:], 0.1, tag, scale_on)
            assert hits == rank_hits(scores, 0.1)
        if noise == 0.0:
            assert hits == 30
        else:  # premise: some scores tie
            assert np.unique(scores).size < scores.size

    @given(
        alpha=st.floats(0.001, 0.99),
        n_cal=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_secpr_two_sided_rank_count(self, alpha, n_cal, seed):
        """With distinct signed errors, SECPR covers the pooled ranks r with k_R < r <= k_Q."""
        rng = np.random.default_rng(seed)
        data = make_line_data(rng, 60 + n_cal + 1, lambda n: rng.standard_normal(n))
        idx = np.arange(data.n)
        pool = idx[60:]
        hits = 0
        for j in range(pool.size):
            model = fit_secpr(data, SplitPlan(idx[:60], [], np.delete(pool, j)), alpha)
            row = data.subset(pool[j : j + 1])
            hits += region_contains(predict_regions(model, row.x)[0], row.y[0])
        k_r = snapped_ceil(alpha / 2 * (n_cal + 1) - 1.0)
        k_q = snapped_ceil((1 - alpha / 2) * (n_cal + 1))
        assert hits == sum(k_r < r <= k_q for r in range(1, n_cal + 2))


def stub_pipeline(center, scale_coef, intervals, cutoff=-1.0):
    """A pipeline whose density is 1 on each s-space interval, falling to 0
    a quarter unit outside it; at cutoff -1 its level set is ``intervals``."""
    gh = MeanEstimator(d=1, coef=np.array([center, 0.0]))
    # every neighbour's target is scale_coef, so the scale is scale_coef everywhere
    x_fit = np.linspace(-5, 5, 20).reshape(-1, 1)
    sh = KnnQuantiles(x_fit, np.full(20, scale_coef), 10, np.array([0.9]))
    grid = np.ravel([(a - 0.25, a, b, b + 0.25) for a, b in intervals])
    density = np.tile([0.0, 1.0, 1.0, 0.0], len(intervals))
    return KdeHpdPipeline(gh=gh, sh=sh, grid=grid, density=density, cutoff=cutoff)


class TestPredictRegion:
    def test_affine_map(self):
        pipe = stub_pipeline(9.0, 1.0, ((-1.65, 1.65),))
        region = predict_regions(pipe, [[0.0]])[0]
        assert region.intervals[0] == pytest.approx((7.35, 10.65))

    def test_scale_doubles_length(self):
        narrow = stub_pipeline(9.0, 1.0, ((-1.65, 1.65),))
        wide = stub_pipeline(9.0, 2.0, ((-1.65, 1.65),))
        assert region_length(predict_regions(wide, [[0.0]])[0]) == pytest.approx(
            2 * region_length(predict_regions(narrow, [[0.0]])[0])
        )

    def test_each_run_above_the_level_is_one_interval(self):
        pipe = stub_pipeline(0.0, 1.0, ((-1.0, -0.5), (0.2, 1.0)))
        assert pipe.n_intervals == 2
        region = predict_regions(pipe, [[0.0]])[0]
        np.testing.assert_allclose(region.intervals, [(-1.0, -0.5), (0.2, 1.0)])

    def test_batch_matches_single(self):
        pipe = stub_pipeline(1.0, 1.0, ((-1.0, 1.0),))
        xs = np.array([[0.0], [2.0], [5.0]])
        batch = predict_regions(pipe, xs)
        for row, reg in zip(xs, batch):
            assert predict_regions(pipe, row[None, :])[0].intervals == reg.intervals

    @pytest.mark.parametrize("cutoff", [math.inf, 0.0, -0.0, 0.5])
    def test_cutoff_at_or_above_zero_gives_the_whole_line(self, cutoff):
        pipe = stub_pipeline(1.0, 1.0, ((-1.0, 1.0),), cutoff=cutoff)
        assert predict_regions(pipe, [[0.0]])[0].intervals == ((-math.inf, math.inf),)

    def test_cutoff_below_the_peak_gives_no_interval(self):
        pipe = stub_pipeline(1.0, 1.0, ((-1.0, 1.0),), cutoff=-1.5)
        batch = predict_regions(pipe, [[0.0], [1.0]])
        assert batch.counts.tolist() == [0, 0] and pipe.n_intervals == 0


class TestSecpr:
    def test_order_statistic_interval(self):
        scores = np.arange(1.0, 100.0)
        lower, upper = conformal_r(scores, 0.05), conformal_q(scores, 1.0 - 0.05)
        assert (lower, upper) == (4.0, 95.0)

    def test_zero_lower_budget_clamps(self):
        scores = np.arange(1.0, 100.0)
        lower, upper = conformal_r(scores, 0.0), conformal_q(scores, 1.0 - 0.1)
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
            scores = rng.standard_normal(n_cal)
            lo, hi = conformal_r(scores, a1), conformal_q(scores, 1.0 - a2)
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
        for alpha in [0.1, 0.04, 0.2, 0.6]:
            data = make_line_data(rng, 300, lambda n: rng.standard_normal(n))
            plan = half_split(300)
            direct = fit_secpr(data, plan, alpha)
            cal = data.subset(plan.idx_cal)
            scores = cal.y - predict_mean(direct.gh, cal.x)  # the signed calibration errors
            flipped = np.sort(-scores)
            n = scores.size
            k_lower = math.ceil(round(alpha / 2 * (n + 1) - 1.0, 9))
            k_upper = math.ceil(round((1 - alpha / 2) * (n + 1), 9))
            assert direct.lower == mirrored_order_stat(flipped, k_lower)
            assert direct.upper == mirrored_order_stat(flipped, k_upper)


class TestCqr:
    def test_exact_quantiles_give_near_zero_correction(self):
        rng = np.random.default_rng(50)
        y = rng.standard_normal(5000)
        qlo, qhi = norm.ppf(0.05), norm.ppf(0.95)
        scores = np.maximum(qlo - y, y - qhi)
        correction = conformal_q(scores, 0.9)
        assert abs(correction) < 0.05

    def test_interval_orientation_and_coverage_one_shot(self):
        rng = np.random.default_rng(51)
        data = make_line_data(rng, 1000, lambda n: rng.standard_normal(n))
        model = fit_cqr(data, half_split(1000), 0.1)
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
        fitted = fit_cqr(data, plan, 0.1)
        region = predict_regions(fitted, np.array([[0.5]]))[0]
        assert not region.intervals or region_length(region) >= 0.0


class TestDcp:
    def test_symmetric_normal_centers_the_window(self):
        qmat = norm.ppf(DCP_LADDER_LEVELS).reshape(1, -1)
        b_hat = optimal_lower_level(qmat, 0.10)
        assert b_hat[0] == pytest.approx(0.05, abs=1e-12)

    def test_right_skew_shifts_window_left(self):
        qmat = gamma_dist.ppf(DCP_LADDER_LEVELS, a=7.5, scale=1.0).reshape(1, -1)
        b_hat = optimal_lower_level(qmat, 0.10)
        assert b_hat[0] < 0.05
        # oracle: direct grid minimization over the analytic quantiles;
        # ladder interpolation bias can move the argmin by one step
        zs = np.linspace(0, 0.10, 21)
        widths = gamma_dist.ppf(zs + 0.9, a=7.5) - gamma_dist.ppf(zs, a=7.5)
        assert b_hat[0] == pytest.approx(zs[widths.argmin()], abs=0.005 + 1e-12)

    def test_exact_cdf_limit_recovers_true_quantiles(self):
        rng = np.random.default_rng(60)
        data = make_line_data(rng, 4000, lambda n: rng.standard_normal(n))
        model = fit_dcp(data, half_split(4000), 0.10)
        region = predict_regions(model, np.array([[0.0]]))[0]
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
        per_row = _ladder_quantile(qmat, tau[:, None])[:, 0]
        np.testing.assert_array_equal(per_row, expected)
        grid = tau[None, :]  # every level at every row, as the DCP window search asks
        expected = np.column_stack([scalar(qmat, DCP_LADDER_LEVELS, t) for t in tau])
        np.testing.assert_array_equal(_ladder_quantile(qmat, grid), expected)

    def test_region_is_always_single_interval(self):
        rng = np.random.default_rng(61)
        comp = rng.random(800) < 0.5
        data = make_line_data(
            rng, 800, lambda n: rng.normal(np.where(comp, -6.0, 6.0), 1.0)
        )
        model = fit_dcp(data, half_split(800), 0.10)
        for x in np.linspace(-5, 5, 7):
            assert len(predict_regions(model, np.array([[x]]))[0]) == 1


class TestDcpWindow:
    """The window's shortcuts against the plain computations they replace, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["parallel", "random", "dip"]),
        rows=st.integers(1, 40),
        alpha=st.floats(0.01, 0.99),
    )
    def test_running_max_on_crossing_rows_only_equals_it_on_every_row(self, seed, kind, rows, alpha):
        # "parallel" ladders never cross, "dip" ladders cross at every row,
        # and "random" ones cross at some rows, depending on x
        rng = np.random.default_rng(seed)
        n_levels = DCP_LADDER_LEVELS.size
        coef = np.vstack([
            np.cumsum(rng.exponential(0.05, n_levels)),
            np.full(n_levels, rng.normal()),
            np.full(n_levels, rng.normal(0.0, 0.1)),
        ])
        if kind == "random":
            coef[1:] = np.cumsum(rng.normal(0.0, 0.05, (2, n_levels)), axis=1)
        elif kind == "dip":
            coef[0, rng.integers(1, n_levels) :] -= 10.0
        ladder = LinearQuantiles(
            d=1, levels=DCP_LADDER_LEVELS, coef=coef, mu=np.zeros(3), sd=np.ones(3), iterations=0
        )
        x = rng.uniform(-2.0, 2.0, (rows, 1))
        raw = predict_quantile(ladder, x)
        crossed = (np.diff(raw, axis=1) < 0).any(axis=1)
        if kind == "parallel":
            assert not crossed.any()
        if kind == "dip":
            assert crossed.all()
        expected = np.maximum.accumulate(raw, axis=1)
        qmat, center = conformal._dcp_window(ladder, alpha, x)
        assert qmat.tobytes() == expected.tobytes()
        lower = optimal_lower_level(expected, alpha)
        assert center.tobytes() == (lower + 0.5 * (1.0 - alpha)).tobytes()

        # a grid shared by every row reads the same bits as that grid given per row
        grid = np.concatenate([
            rng.uniform(-0.1, 1.1, 30), DCP_LADDER_LEVELS[[0, 1, 50, -1]], [0.0, 1.0, 0.005, 0.995],
        ])[None, :]
        shared = _ladder_quantile(qmat, grid)
        per_row = _ladder_quantile(qmat, np.repeat(grid, rows, axis=0))
        assert shared.tobytes() == per_row.tobytes()


@st.composite
def dcp_cases(draw):
    """A DCP model over a random, often crossing, linear ladder, 20 covariate rows,
    candidate responses per row, and which of them the property checks.

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
    ladder = LinearQuantiles(
        d=1, levels=DCP_LADDER_LEVELS, coef=coef, mu=np.zeros(3), sd=np.ones(3), iterations=0
    )
    alpha = draw(st.floats(0.01, 0.99))
    cutoff = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True), st.just(1.0), st.just(math.inf)
    ))
    model, x = DcpModel(ladder=ladder, alpha=alpha, cutoff=cutoff), rng.uniform(-2.0, 2.0, (20, 1))
    qmat = np.maximum.accumulate(predict_quantile(model.ladder, x), axis=1)
    center = optimal_lower_level(qmat, model.alpha) + 0.5 * (1 - model.alpha)
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
    return model, x, ys, checked


@st.composite
def cqr_cases(draw):
    """A CQR model over a random, often crossing, linear band, 20 covariate
    rows, candidate responses per row, and which of them the property checks.

    Every response is checked: the band, the closed-form ends q_lo - cutoff
    and q_hi + cutoff, the region's own ends and the floats on either side
    of them, and random draws. A negative cutoff, or a crossed band, leaves
    rows empty; a cutoff of minus half the first row's band width shrinks
    that row to about one point.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ladder = LinearQuantiles(
        d=1, levels=np.array([0.05, 0.95]),
        coef=rng.normal(0.0, 1.0, (3, 2)) * 10.0 ** rng.integers(-3, 4), mu=np.zeros(3),
        sd=np.ones(3), iterations=0,
    )
    x = rng.uniform(-2.0, 2.0, (20, 1))
    band = predict_quantile(ladder, x)
    q_lo, q_hi = band[:, :1], band[:, 1:]
    cutoff = draw(st.one_of(
        st.floats(-1e3, 1e3, allow_subnormal=False),
        st.just(0.5 * (q_lo[0, 0] - q_hi[0, 0])),
        st.just(math.inf),
    ))
    model = CqrModel(ladder=ladder, cutoff=cutoff)
    batch = model.predict_regions(x)
    ends = np.where(np.isnan(batch.lo), q_lo - cutoff, np.hstack([batch.lo, batch.hi]))
    ys = np.hstack([
        band, q_lo - cutoff, q_hi + cutoff, q_lo + cutoff, q_hi - cutoff,
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
        rng.uniform(band.min() - 4.0, band.max() + 4.0, (x.shape[0], 20)),
    ])
    return model, x, ys, np.isfinite(ys)


@st.composite
def kde_hpd_cases(draw):
    """A kde-hpd pipeline whose interpolation arithmetic is exact, 20
    covariate rows, and candidate responses per row.

    The grid is consecutive integers, and the density a walk in steps of
    0 or +-1/2 clipped at 0, so every slope is 0 or +-1/2; the mean is a
    multiple of 1/8 with unit scale and the cutoff a multiple of 1/16. Then
    every interpolated density, crossing and score is exact, every crossing
    is a multiple of 1/8, and the responses, every multiple of 1/8 from 2
    below the grid to 2 above it, hit each crossing and each grid point.
    The cutoff may tie with grid values, lie above every value (no
    interval) or be >= 0 or +inf (the whole line).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 24))
    grid = np.arange(size, dtype=np.float64) + draw(st.integers(-20, 20))
    walk = rng.integers(0, 4) * 0.5 + np.cumsum(rng.choice([-0.5, 0.0, 0.5], size))
    density = np.maximum(walk, 0.0)
    cutoff = draw(st.one_of(
        st.integers(-16 * int(density.max()) - 32, 8).map(lambda k: k / 16.0),
        st.sampled_from(list(-density)),
        st.just(math.inf),
    ))
    center = draw(st.integers(-80, 80)) / 8.0
    model = KdeHpdPipeline(
        gh=MeanEstimator(d=1, coef=np.array([center, 0.0])),
        sh=None,
        grid=grid, density=density, cutoff=cutoff,
    )
    x = rng.uniform(-2.0, 2.0, (20, 1))
    s = np.arange(8.0 * (grid[0] - 2.0), 8.0 * (grid[-1] + 2.0) + 1.0) / 8.0
    ys = np.tile(center + s, (x.shape[0], 1))
    return model, x, ys, np.ones(ys.shape, dtype=bool)


class TestSublevelSet:
    @pytest.mark.parametrize(
        "cases", [dcp_cases, cqr_cases, kde_hpd_cases], ids=["dcp", "cqr", "kde-hpd"]
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_region_is_the_score_sublevel_set(self, cases, data):
        model, x, ys, checked = data.draw(cases())
        batch = model.predict_regions(x)
        per_y = ys.shape[1]  # one score call: every candidate y against its own row
        scores = model.score(np.repeat(x, per_y, axis=0), ys.ravel()).reshape(ys.shape)
        if isinstance(model, DcpModel):
            n_knots = DCP_LADDER_LEVELS.size
            assert ((0.0 <= scores) & (scores <= 1.0)).all()
            assert (scores[:, n_knots : n_knots + 4] == 1.0).all()  # beyond the ladder
        # padding is NaN and compares false: an empty row holds no y
        inside = (batch.lo[:, None, :] <= ys[..., None]) & (ys[..., None] <= batch.hi[:, None, :])
        np.testing.assert_array_equal(
            inside.any(axis=2)[checked], (scores <= model.cutoff)[checked]
        )

    def test_tiny_calibration_fold_gives_the_whole_line(self):
        # five calibration scores: the 0.9 conformal quantile is +inf
        rng = np.random.default_rng(63)
        data = make_line_data(rng, 105, lambda n: rng.standard_normal(n))
        idx = np.arange(105)
        model = fit_dcp(data, SplitPlan(idx[:100], [], idx[100:]), 0.10)
        assert model.cutoff == math.inf
        region = predict_regions(model, np.array([[0.0]]))[0]
        assert region.intervals == ((-math.inf, math.inf),)

    def test_calibration_beyond_the_ladder_never_conforms(self):
        rng = np.random.default_rng(64)
        data = make_line_data(rng, 400, lambda n: rng.standard_normal(n))
        model = fit_dcp(data, half_split(400), 0.10)
        x = np.zeros((2, 1))
        band = predict_quantile(model.ladder, x)
        y = np.array([band[0, 0] - 1.0, band[1, -1] + 1.0])
        np.testing.assert_array_equal(model.score(x, y), [1.0, 1.0])
        lo, hi = predict_regions(model, x[:1])[0].intervals[0]
        assert lo >= band[0, 0] and hi <= band[0, -1]


class TestParametricNormal:
    def test_noiseless_line_degenerates(self):
        x = np.linspace(-5, 5, 60).reshape(-1, 1)
        data = Dataset(x, 5.0 + 2.0 * x[:, 0])
        model = fit_parametric_normal(data, 0.1)
        region = predict_regions(model, np.array([[1.0]]))[0]
        assert region.intervals[0][0] == pytest.approx(7.0, abs=1e-7)
        assert region.intervals[0][1] == pytest.approx(7.0, abs=1e-7)

    def test_half_width_approaches_z_times_s(self):
        rng = np.random.default_rng(70)
        data = make_line_data(rng, 4000, lambda n: rng.standard_normal(n))
        model = fit_parametric_normal(data, 0.1)
        region = predict_regions(model, np.array([[0.0]]))[0]
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
        return fit_secpr(ds, plan, 0.1)
    if method == "cqr":
        return fit_cqr(ds, plan, 0.1)
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
            return predict_regions(fit_by_method(method, ds, plan), x_probe)[0]

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
        base = predict_regions(fit_kde_hpd(data, plan, 0.1), np.array([[0.5]]))[0]
        up = predict_regions(fit_kde_hpd(scaled, plan, 0.1), np.array([[0.5]]))[0]
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
            single = predict_regions(model, row[None, :])[0]
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


class TestFolds:
    @pytest.mark.parametrize(
        "plan, match",
        [
            (SplitPlan([], [], np.arange(20)), "training fold is empty"),
            (SplitPlan(np.arange(10), [], []), "calibration fold is empty"),
            (SplitPlan(np.arange(10), [], [10, 11, 20]), "idx_cal contains index >= n=20"),
        ],
        ids=["empty-training", "empty-calibration", "index-out-of-range"],
    )
    @pytest.mark.parametrize("method", ["kde-hpd", "secpr", "cqr", "dcp"])
    def test_bad_folds_rejected_before_fitting(self, method, plan, match, monkeypatch):
        rng = np.random.default_rng(94)
        data = make_line_data(rng, 20, lambda n: rng.standard_normal(n))

        def no_fitting(*args, **kwargs):
            raise AssertionError("fitted before checking the folds")

        for name in ("fit_mean", "fit_scale", "fit_quantile_ladder", "binned_kde"):
            monkeypatch.setattr(conformal, name, no_fitting)
        with pytest.raises(ValueError, match=match):
            fit_by_method(method, data, plan)


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
        # secpr gives alpha / 2 to each tail
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            fit_method(method, data, half_split(200), alpha, False)
