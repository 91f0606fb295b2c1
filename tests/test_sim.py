import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

import conformal_hpd.sim as sim
from conformal_hpd.core import ConfigError, PredictionRegion, first_float, region_length
from conformal_hpd.sim import (
    METHOD_TAGS,
    MethodSummary,
    RepReport,
    Scenario,
    conditional_coverage,
    generate,
    hausdorff_diagnostic,
    run_replications,
    summarize,
)


class TestGenerate:
    def test_unimodal_symmetric_moments(self):
        scn = Scenario(tag="unimodal-symmetric", n_train=50_000, n_cal=50_000, seed=3)
        obs, _, _ = generate(scn)
        resid = obs.y - (5.0 + 2.0 * obs.x[:, 0])
        assert abs(resid.mean()) < 0.01
        assert abs(resid.std() - 1.0) < 0.01

    def test_skewed_residual_mean(self):
        scn = Scenario(tag="unimodal-skewed", n_train=50_000, n_cal=50_000, seed=4)
        obs, _, _ = generate(scn)
        resid = obs.y - (5.0 + 2.0 * obs.x[:, 0])
        assert resid.mean() == pytest.approx(7.5, abs=0.03)

    def test_bimodal_mode_masses(self):
        scn = Scenario(tag="bimodal", n_train=50_000, n_cal=50_000, seed=5)
        obs, _, _ = generate(scn)
        resid = obs.y - (5.0 + 2.0 * obs.x[:, 0])
        left = ((resid >= -9) & (resid <= -3)).mean()
        assert left == pytest.approx(0.5, abs=0.01)

    def test_heteroscedastic_unit_mean_offset(self):
        scn = Scenario(tag="heteroscedastic", n_train=50_000, n_cal=50_000, seed=6)
        obs, _, _ = generate(scn)
        resid = obs.y - (5.0 + 2.0 * obs.x[:, 0])
        assert resid.mean() == pytest.approx(1.0, abs=0.01)

    def test_covariates_uniform_and_deterministic(self):
        scn = Scenario(tag="bowtie", seed=12)
        obs1, test1, _ = generate(scn)
        obs2, test2, _ = generate(scn)
        np.testing.assert_array_equal(obs1.x, obs2.x)
        np.testing.assert_array_equal(obs1.y, obs2.y)
        np.testing.assert_array_equal(test1.y, test2.y)
        assert obs1.x.min() >= -5 and obs1.x.max() <= 5

    def test_observed_and_test_streams_differ(self):
        scn = Scenario(tag="unimodal-symmetric", n_train=25, n_cal=25, seed=12)
        obs, test, _ = generate(scn)
        assert not np.isin(test.y, obs.y).any()

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            Scenario(tag="trimodal")


def oracle_regions(scn, xs):
    """The scenario oracle's regions at the covariates ``xs``, one row each."""
    return generate(scn)[2].predict_regions(np.reshape(xs, (-1, 1)))


class TestOracle:
    def test_unimodal_symmetric_interval(self):
        scn = Scenario(tag="unimodal-symmetric")
        z = norm.ppf(0.95)
        xs = (-3.0, 0.0, 4.2)
        for x, region in zip(xs, oracle_regions(scn, xs)):
            lo, hi = region.intervals[0]
            assert lo == pytest.approx(5 + 2 * x - z, abs=1e-9)
            assert hi == pytest.approx(5 + 2 * x + z, abs=1e-9)
            assert region_length(region) == pytest.approx(2 * z, abs=1e-9)

    def test_bimodal_two_intervals(self):
        scn = Scenario(tag="bimodal")
        region = oracle_regions(scn, [0.0])[0]
        assert len(region) == 2
        assert region_length(region) == pytest.approx(4 * norm.ppf(0.95), abs=1e-5)
        (l1, u1), (l2, u2) = region.intervals
        z = norm.ppf(0.95)
        assert l1 == pytest.approx(5 - 6 - z, abs=1e-5)
        assert u2 == pytest.approx(5 + 6 + z, abs=1e-5)

    def test_bowtie_degenerate_at_origin(self):
        scn = Scenario(tag="bowtie")
        region = oracle_regions(scn, [0.0])[0]
        assert region_length(region) == 0.0
        assert region.intervals[0][0] == pytest.approx(5.0)

    def test_heteroscedastic_exponential_at_origin(self):
        # shape 1 at x=0: the smallest 0.9 set of Exp(1) starts at zero
        scn = Scenario(tag="heteroscedastic")
        region = oracle_regions(scn, [0.0])[0]
        lo, hi = region.intervals[0]
        assert lo == pytest.approx(5.0, abs=1e-6)
        assert hi - lo == pytest.approx(math.log(10.0), abs=1e-6)

    def test_skewed_gamma_cutoff_equalizes_density(self):
        scn = Scenario(tag="unimodal-skewed")
        region = oracle_regions(scn, [1.0])[0]
        lo, hi = region.intervals[0]
        g = 5.0 + 2.0
        f_lo = gamma_dist.pdf(lo - g, a=7.5)
        f_hi = gamma_dist.pdf(hi - g, a=7.5)
        assert f_lo == pytest.approx(f_hi, rel=1e-4)
        mass = gamma_dist.cdf(hi - g, a=7.5) - gamma_dist.cdf(lo - g, a=7.5)
        assert mass == pytest.approx(0.9, abs=1e-8)

    @pytest.mark.parametrize("tag", sim.SCENARIO_TAGS)
    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_batch_rows_equal_the_one_row_case(self, tag, alpha):
        scn = Scenario(tag=tag, alpha=alpha, seed=2)
        _, _, oracle = generate(scn)
        xs = [-4.5, -1.0, 0.0, 0.25, 3.0]  # bowtie has zero width at x = 0
        batch = oracle.predict_regions(np.array(xs).reshape(-1, 1))
        assert len(batch) == len(xs)
        for x, region in zip(xs, batch):
            # tests-only copy of the per-x oracle: the law's set shifted by the mean
            g = 5.0 + 2.0 * x
            law_set = oracle.law.hpd_intervals(alpha, np.array([x]))[0].tolist()
            expected = tuple((g + lo, g + hi) for lo, hi in law_set)
            assert repr(region.intervals) == repr(PredictionRegion(expected).intervals)
            assert region.intervals == oracle.predict_regions([[x]])[0].intervals
            assert len(region) == len(law_set) == batch.counts.max()  # the same J at every x
        if tag == "bowtie":
            assert region_length(batch[2]) == 0.0

    @pytest.mark.parametrize("tag", sim.SCENARIO_TAGS)
    @pytest.mark.parametrize(
        "xs, match",
        [
            ([[0.0, 1.0], [2.0, 3.0]], "dimension mismatch"),  # (n, 2): was column 0
            ([0.0, 1.0], "dimension mismatch"),  # 1-D: was an IndexError
            ([[math.inf]], "finite"),
            ([[math.nan]], "finite"),
        ],
    )
    def test_covariates_checked_as_every_model_does(self, tag, xs, match):
        _, _, oracle = generate(Scenario(tag=tag))
        with pytest.raises(ValueError, match=match):
            oracle.predict_regions(xs)


class TestRegionRows:
    """Every producer builds its rows in the order ``RegionBatch`` checks."""

    @pytest.mark.parametrize("scale_on", [False, True])
    @pytest.mark.parametrize("tag", METHOD_TAGS)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(40, 300))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_rows_ordered_on_a_covariate_grid(self, tag, scale_on, seed, n):
        xs = np.linspace(-6.0, 6.0, 97).reshape(-1, 1)
        for scenario in sim.SCENARIO_TAGS:
            scn = Scenario(scenario, n_train=n, n_cal=n, seed=seed)
            batch = sim.fit_draw(scn, tag, generate(scn), scale_on).predict_regions(xs)
            present = np.arange(batch.lo.shape[1]) < batch.counts[:, None]
            assert (batch.lo <= batch.hi)[present].all()
            assert (batch.hi[:, :-1] <= batch.lo[:, 1:])[present[:, 1:]].all()
            assert np.isnan(batch.lo[~present]).all() and np.isnan(batch.hi[~present]).all()


def gamma_reference(law, x):
    """scipy.stats' gamma law of a gamma-family scenario at the covariate ``x``."""
    shape, rate = (float(f(np.array([x]))[0]) for f in (law.shape, law.rate))
    return gamma_dist(shape, scale=1.0 / rate)


def mixture_cdf(z):
    return 0.5 * norm.cdf(z + 6.0) + 0.5 * norm.cdf(z - 6.0)


def mixture_pdf(z):
    return 0.5 * norm.pdf(z + 6.0) + 0.5 * norm.pdf(z - 6.0)


def mixture_upper(a, mass):
    # the first float whose mixture CDF reaches cdf(a) + mass; the CDF is 1 at 20
    q = mixture_cdf(a) + mass
    return float(first_float(a, 20.0, lambda z: mixture_cdf(z) >= q))


class TestOracleClosedForms:
    """Each oracle is its law's smallest 1 - alpha set, checked with scipy.stats.

    A normal law's set is closed-form. A gamma law's is [a, b(a)], b(a) the end
    of mass 1 - alpha above a; the mixture's right piece is [a, b(a)] at mass
    (1 - alpha)/2, mirrored. pdf(a) >= pdf(b(a)) holds at a, and not at the
    float below a, unless a is 0.
    """

    @pytest.mark.parametrize("tag", sim.SCENARIO_TAGS)
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
    def test_intervals_are_the_smallest_sets(self, tag, alpha):
        law = sim._LAWS[tag]
        xs = (-4.7, -1.0, 0.0, 0.3, 2.5)
        for x, got in zip(xs, law.hpd_intervals(alpha, np.array(xs)).tolist()):
            if isinstance(law, sim._NormalLaw):
                z = norm.ppf(1.0 - alpha / 2.0) * law.sd(np.array([x]))[0]
                assert got == [[-z, z]]
                continue
            if isinstance(law, sim._BimodalLaw):
                (lo, hi), (a, b) = got
                assert (lo, hi) == (-b, -a)
                mass = (1.0 - alpha) / 2.0
                pdf, cdf, upper = mixture_pdf, mixture_cdf, lambda a: mixture_upper(a, mass)
            else:
                ((a, b),) = got
                ref, mass = gamma_reference(law, x), 1.0 - alpha
                pdf, cdf, upper = ref.pdf, ref.cdf, lambda a: ref.ppf(ref.cdf(a) + mass)
            assert b == upper(a)
            assert abs(cdf(b) - cdf(a) - mass) <= 1e-14
            assert pdf(a) >= pdf(b)
            below = np.nextafter(a, -math.inf)
            assert a == 0.0 or pdf(below) < pdf(upper(below)), (tag, alpha, x)

    @pytest.mark.parametrize("alpha", [1e-12, 0.01, 0.1, 0.5, 0.999])
    def test_gamma_sets_finite_with_exact_mass_at_extreme_alpha(self, alpha):
        # near-exponential laws (x near 0) put the lower end below 1e-14
        cases = [("unimodal-skewed", 0.0)] + [
            ("heteroscedastic", x) for x in (0.0, 1e-4, -1e-4, 0.037, -0.037, 3.0, -5.0)
        ]
        for tag, x in cases:
            law = sim._LAWS[tag]
            ((a, b),) = law.hpd_intervals(alpha, np.array([x]))[0].tolist()
            ref = gamma_reference(law, x)
            assert math.isfinite(a) and math.isfinite(b), (tag, x)
            assert abs(ref.cdf(b) - ref.cdf(a) - (1.0 - alpha)) <= 1e-14, (tag, x)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-6, 0.1, 0.999])
    def test_mixture_set_symmetric_with_exact_mass_at_extreme_alpha(self, alpha):
        got = sim._BimodalLaw().hpd_intervals(alpha, np.zeros(1))[0]
        np.testing.assert_array_equal(got, -got[::-1, ::-1])
        mass = sum(mixture_cdf(b) - mixture_cdf(a) for a, b in got)
        assert abs(mass - (1.0 - alpha)) <= 1e-14
        assert len(got) == (1 if alpha == 1e-12 else 2)  # the two pieces meet below ~2e-9


class TestSummarize:
    @staticmethod
    def report(method, rep, mean_size):
        return RepReport(
            method=method, rep=rep, seed=rep, coverage=1.0, mean_size=mean_size,
            sizes=(mean_size,), covered=(True,), x_test=(0.0,), wall_time=0.0,
            n_intervals=1,
        )

    def test_infinite_size_gives_infinite_se_without_warning(self):
        reports = [
            self.report("dcp", 0, 3.0),
            self.report("dcp", 1, math.inf),
            self.report("secpr", 0, 3.0),
            self.report("secpr", 1, 5.0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dcp, secpr = summarize(reports)
        assert dcp.mean_size == math.inf and dcp.size_se == math.inf
        assert secpr.mean_size == 4.0 and secpr.size_se == pytest.approx(1.0)

    def test_failed_report_with_no_size_is_not_kept(self):
        failed = replace(self.report("dcp", 1, math.nan), error="ValueError: x")
        summary = summarize([self.report("dcp", 0, math.inf), failed])[0]
        assert summary.failures == 1 and summary.size_se == math.inf


class TestRunReplications:
    @staticmethod
    def untimed(reports):
        """The reports with the wall time, which the clock sets, zeroed."""
        return [replace(r, wall_time=0.0) for r in reports]

    def test_determinism_across_thread_counts(self):
        scn = Scenario(tag="unimodal-symmetric", n_train=100, n_cal=100, n_test=10, seed=9)
        serial = run_replications(scn, ["kde-hpd", "secpr"], reps=6, threads=1)
        parallel = run_replications(scn, ["kde-hpd", "secpr"], reps=6, threads=2)
        assert self.untimed(serial) == self.untimed(parallel)

    @pytest.mark.parametrize("reps, most", [(2, 2), (1, 0)])  # one replication runs serially
    def test_pool_forks_at_most_one_worker_per_replication(self, monkeypatch, reps, most):
        from concurrent.futures import ProcessPoolExecutor

        spawn, spawned = ProcessPoolExecutor._spawn_process, []
        monkeypatch.setattr(
            ProcessPoolExecutor, "_spawn_process", lambda pool: spawned.append(1) or spawn(pool)
        )
        scn = Scenario(tag="unimodal-symmetric", n_train=40, n_cal=40, n_test=5, seed=3)
        parallel = run_replications(scn, ["secpr"], reps=reps, threads=4)
        assert len(spawned) <= most
        assert self.untimed(parallel) == self.untimed(run_replications(scn, ["secpr"], reps=reps))

    def test_reports_pinned_for_every_method(self):
        # every method, oracle and parametric included (the benchmark runs
        # neither), as the per-region scoring loops reported them; re-pinned
        # when the oracle's ends became exact to the float (moves up to 3.3e-8)
        h = hashlib.sha256()
        for tag in sim.SCENARIO_TAGS:
            scn = Scenario(tag, n_train=60, n_cal=60, n_test=8, seed=11)
            h.update(repr(self.untimed(run_replications(scn, METHOD_TAGS, reps=2))).encode())
        assert h.hexdigest() == (
            "583698beaadffeeeb1633f1e508931397b35708e6e010c83440afa7f7616b482"
        )

    @pytest.mark.parametrize("scale_on", [False, True])
    def test_interval_count_is_the_most_in_one_test_region(self, scale_on):
        scn = Scenario("bimodal", n_train=100, n_cal=100, n_test=10, seed=5)
        draw = generate(scn)  # replication 0 draws from the scenario's own seed
        for r in run_replications(scn, METHOD_TAGS, reps=1, scale_model=scale_on):
            batch = sim.fit_draw(scn, r.method, draw, scale_on).predict_regions(draw[1].x)
            assert type(r.n_intervals) is int
            assert r.n_intervals == max(len(region) for region in batch)

    def test_empty_regions_count_no_interval(self, monkeypatch):
        fit_cqr = sim.fit_cqr
        # a cutoff far below every score shrinks each band past empty
        monkeypatch.setattr(sim, "fit_cqr", lambda *a: replace(fit_cqr(*a), cutoff=-1e6))
        scn = Scenario("bimodal", n_train=100, n_cal=100, n_test=10, seed=5)
        (report,) = run_replications(scn, ["cqr"], reps=1)
        assert report.error is None and report.n_intervals == 0
        assert report.covered.tolist() == [0] * 10 and report.sizes.tolist() == [0.0] * 10

    def test_determinism_across_calls(self):
        scn = Scenario(tag="bimodal", n_train=150, n_cal=150, n_test=10, seed=2)
        a = run_replications(scn, ["secpr"], reps=4)
        b = run_replications(scn, ["secpr"], reps=4)
        for ra, rb in zip(a, b):
            assert ra.sizes == rb.sizes
            assert ra.covered == rb.covered

    def test_failing_replication_is_recorded(self):
        # scale model forces a two-fold training split; n_train=1 leaves
        # the first fold empty, so every replication fails and is counted
        scn = Scenario(tag="unimodal-symmetric", n_train=1, n_cal=40, n_test=5, seed=0)
        reports = run_replications(scn, ["kde-hpd"], reps=3, scale_model=True)
        assert all(r.error is not None for r in reports)
        summary = summarize(reports)[0]
        assert summary.failures == 3
        assert math.isnan(summary.coverage)

    def test_unknown_method_rejected(self):
        scn = Scenario(tag="bimodal")
        with pytest.raises(ValueError, match="unknown method"):
            run_replications(scn, ["magic"], reps=1)

    @pytest.mark.parametrize(
        "methods, message",
        [([], "no methods given"), (["secpr", "secpr"], "method 'secpr' given more than once")],
    )
    def test_empty_or_repeated_methods_rejected(self, methods, message):
        # a repeated tag would count its reports twice in the method's summary
        with pytest.raises(ConfigError, match=message):
            run_replications(Scenario(tag="bimodal"), methods, reps=1)

    def test_dcp_bimodal_size_matches_reference_tables(self):
        scn = Scenario(tag="bimodal", seed=7)
        summary = summarize(run_replications(scn, ["dcp"], reps=60))[0]
        assert summary.coverage == pytest.approx(0.9, abs=0.025)
        assert summary.mean_size == pytest.approx(14.526, abs=0.5)

    def test_oracle_method_hits_analytic_size(self):
        scn = Scenario(tag="unimodal-symmetric", seed=3)
        summary = summarize(run_replications(scn, ["oracle"], reps=5))[0]
        assert summary.mean_size == pytest.approx(2 * norm.ppf(0.95), abs=1e-6)
        assert summary.coverage == pytest.approx(0.9, abs=0.05)


class TestConditionalCoverage:
    def test_constant_slicer_reproduces_marginal(self):
        scn = Scenario(tag="unimodal-symmetric", n_train=200, n_cal=200, n_test=20, seed=5)
        reports = run_replications(scn, ["secpr"], reps=10)
        table = conditional_coverage(reports, lambda x: "all")
        marginal = np.mean([c for r in reports for c in r.covered])
        assert table["all"][0] == pytest.approx(marginal, abs=1e-12)
        assert table["all"][2] == 200

    def test_symmetric_scenario_balanced_groups(self):
        scn = Scenario(tag="unimodal-symmetric", seed=6)
        reports = run_replications(scn, ["kde-hpd"], reps=40)
        table = conditional_coverage(reports, lambda x: "pos" if x >= 0 else "neg")
        (c1, se1, _), (c2, se2, _) = table["pos"], table["neg"]
        assert abs(c1 - c2) <= 3 * (se1 + se2)

    def test_empty_group_absent(self):
        scn = Scenario(tag="unimodal-symmetric", n_train=100, n_cal=100, n_test=10, seed=7)
        reports = run_replications(scn, ["secpr"], reps=2)
        table = conditional_coverage(reports, lambda x: "seen")
        assert "never" not in table

    def test_bowtie_scale_model_restores_conditional_coverage(self):
        scn = Scenario(tag="bowtie", seed=11)
        slicer = lambda x: "inner" if abs(x) < 1 else "outer"
        plain = conditional_coverage(
            run_replications(scn, ["kde-hpd"], reps=120, scale_model=False), slicer
        )
        scaled = conditional_coverage(
            run_replications(scn, ["kde-hpd"], reps=120, scale_model=True), slicer
        )
        gap_plain = abs(plain["inner"][0] - plain["outer"][0])
        gap_scaled = abs(scaled["inner"][0] - scaled["outer"][0])
        assert gap_plain > 0.05
        assert gap_scaled < 0.05


class TestHausdorffDiagnostic:
    def test_oracle_distance_to_itself_is_zero(self):
        scn = Scenario(tag="unimodal-symmetric", seed=8)
        rows = hausdorff_diagnostic(scn, "oracle", ns=[200], reps=2)
        assert rows[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_kde_hpd_distance_shrinks_with_n(self):
        scn = Scenario(tag="unimodal-symmetric", seed=8)
        rows = hausdorff_diagnostic(scn, "kde-hpd", ns=[400, 3200], reps=12)
        assert rows[0][1] > rows[1][1]

    @pytest.mark.parametrize(
        "tag, seed, method, ns, reps, expected",
        [
            (
                "unimodal-symmetric", 8, "kde-hpd", [400, 3200], 12,
                "[(400, 0.2689458981456956), (3200, 0.0908319052578146)]",
            ),
            (
                "bowtie", 5, "kde-hpd", [400, 1600], 6,
                "[(400, 1.1458918595134708), (1600, 0.7922640566911681)]",
            ),
            ("bowtie", 5, "dcp", [100], 4, "[(100, inf)]"),  # unbounded regions count as inf
        ],
        ids=["unimodal-symmetric", "bowtie", "bowtie-dcp"],
    )
    def test_medians_pinned(self, tag, seed, method, ns, reps, expected):
        # the batch distance reproduced the per-row loop; the kde-hpd rows were
        # re-recorded when kde-hpd moved to its density-level score
        rows = hausdorff_diagnostic(Scenario(tag=tag, seed=seed), method, ns=ns, reps=reps)
        assert repr(rows) == expected

    def test_bimodal_distance_small_at_large_n(self):
        # bar frozen from a 50-rep pilot at two seeds (medians 0.085)
        scn = Scenario(tag="bimodal", seed=7)
        rows = hausdorff_diagnostic(scn, "kde-hpd", ns=[8000], reps=20)
        assert rows[0][1] < 0.3


class TestOracleDominance:
    def test_no_method_beats_the_oracle_size(self):
        for tag in sim.SCENARIO_TAGS:
            scn = Scenario(tag=tag, seed=13)
            reports = run_replications(
                scn, ["kde-hpd", "secpr", "cqr", "dcp", "oracle"], reps=24
            )
            summaries = {s.method: s for s in summarize(reports)}
            floor = summaries["oracle"].mean_size
            for method, s in summaries.items():
                if method == "oracle":
                    continue
                assert s.mean_size >= floor - 3 * s.size_se, (
                    f"{tag}/{method}: {s.mean_size:.3f} undercuts oracle {floor:.3f}"
                )
