"""Benchmark scenario generators, oracle regions, and the replication engine.

Random streams are counter-based (Philox): each replication keys its own
stream from ``base seed + rep index``, with the observed and test folds on
separate substreams, so any worker count produces identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from conformal_hpd.conformal import (
    KdeHpdConfig,
    fit_cqr,
    fit_dcp,
    fit_kde_hpd,
    fit_parametric_normal,
    fit_secpr,
)
from conformal_hpd.core import (
    Dataset,
    PredictionRegion,
    SplitPlan,
    hausdorff,
    region_contains,
    region_length,
)
from conformal_hpd.hpd import superlevel_intervals
from conformal_hpd.regress import MeanConfig, QuantileConfig, ScaleConfig

__all__ = [
    "SCENARIO_TAGS",
    "METHOD_TAGS",
    "Scenario",
    "RepReport",
    "MethodSummary",
    "generate",
    "oracle_hpd",
    "run_replications",
    "summarize",
    "conditional_coverage",
    "hausdorff_diagnostic",
    "fit_method",
]

SCENARIO_TAGS = (
    "unimodal-symmetric",
    "unimodal-skewed",
    "bimodal",
    "heteroscedastic",
    "bowtie",
)

METHOD_TAGS = ("kde-hpd", "secpr", "cqr", "dcp", "parametric", "oracle")

_timer = time.perf_counter  # replaceable hook so tests can freeze wall time


@dataclass(frozen=True)
class Scenario:
    """One benchmark configuration: data law, fold sizes, level, seed."""

    tag: str
    n_train: int = 500
    n_cal: int = 500
    n_test: int = 50
    alpha: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.tag not in SCENARIO_TAGS:
            raise ValueError(
                f"unknown scenario {self.tag!r}; valid tags: {', '.join(SCENARIO_TAGS)}"
            )
        if min(self.n_train, self.n_cal, self.n_test) < 1:
            raise ValueError("fold sizes must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


def _mean_fn(x: np.ndarray) -> np.ndarray:
    return 5.0 + 2.0 * x


# ---------------------------------------------------------------------------
# Oracle residual laws and smallest 1-alpha sets


def level_set_hpd(pdf, cdf, lo, hi, alpha, tol=1e-8):
    """Smallest 1-alpha set of an analytic density on [lo, hi].

    Bisection on the density cutoff; covered mass is evaluated through the
    CDF at root-refined interval endpoints, so accuracy is limited only by
    the root tolerance.
    """
    grid = np.linspace(lo, hi, 4096)
    dens = pdf(grid)
    lam_lo, lam_hi = 0.0, float(dens.max())
    target = 1.0 - alpha
    ivals = [(lo, hi)]
    for _ in range(80):
        lam = 0.5 * (lam_lo + lam_hi)
        ivals = superlevel_intervals(pdf, grid, dens, lam, 40)
        mass = sum(cdf(u) - cdf(l) for l, u in ivals)
        if abs(mass - target) < tol:
            break
        if mass > target:
            lam_lo = lam
        else:
            lam_hi = lam
    return ivals


@lru_cache(maxsize=4096)
def _gamma_hpd(shape: float, rate: float, alpha: float):
    # unimodal law: the smallest 1-alpha set is the shortest quantile window
    ppf = lambda p: gamma_dist.ppf(p, a=shape, scale=1.0 / rate)
    res = minimize_scalar(
        lambda a: ppf(a + 1.0 - alpha) - ppf(a),
        bounds=(0.0, alpha),
        method="bounded",
        options={"xatol": 1e-10},
    )
    a_star = float(res.x)
    width = lambda a: ppf(a + 1.0 - alpha) - ppf(a)
    for edge in (0.0, alpha):  # bounded search cannot sit exactly on an edge
        if width(edge) < width(a_star):
            a_star = edge
    return ((float(ppf(a_star)), float(ppf(a_star + 1.0 - alpha))),)


@lru_cache(maxsize=64)
def _mixture_hpd(alpha: float):
    pdf = lambda z: 0.5 * norm.pdf(z + 6.0) + 0.5 * norm.pdf(z - 6.0)
    cdf = lambda z: 0.5 * norm.cdf(z + 6.0) + 0.5 * norm.cdf(z - 6.0)
    return tuple(level_set_hpd(pdf, cdf, -14.0, 14.0, alpha))


class _Law:
    """Residual law: sampling plus the oracle smallest 1-alpha set."""

    def sample(self, rng, x):
        raise NotImplementedError

    def hpd_intervals(self, alpha, x):
        raise NotImplementedError


class _NormalLaw(_Law):
    def sample(self, rng, x):
        return rng.standard_normal(x.shape[0])

    def hpd_intervals(self, alpha, x):
        z = norm.ppf(1.0 - alpha / 2.0)
        return ((-z, z),)


class _SkewedGammaLaw(_Law):
    shape = 7.5

    def sample(self, rng, x):
        return rng.gamma(self.shape, 1.0, x.shape[0])

    def hpd_intervals(self, alpha, x):
        return _gamma_hpd(self.shape, 1.0, alpha)


class _BimodalLaw(_Law):
    def sample(self, rng, x):
        comp = rng.random(x.shape[0]) < 0.5
        return rng.normal(np.where(comp, -6.0, 6.0), 1.0)

    def hpd_intervals(self, alpha, x):
        return _mixture_hpd(alpha)


class _HeteroGammaLaw(_Law):
    """Gamma(1 + 2|x|, 1 + 2|x|): unit mean at every x, variance shrinking in |x|."""

    def sample(self, rng, x):
        shape = 1.0 + 2.0 * np.abs(x)
        return rng.gamma(shape, 1.0 / shape)

    def hpd_intervals(self, alpha, x):
        shape = 1.0 + 2.0 * abs(float(x))
        return _gamma_hpd(round(shape, 12), round(shape, 12), alpha)


class _BowtieLaw(_Law):
    def sample(self, rng, x):
        return rng.normal(0.0, np.abs(x))

    def hpd_intervals(self, alpha, x):
        z = norm.ppf(1.0 - alpha / 2.0) * abs(float(x))
        return ((-z, z),)


_LAWS = {
    "unimodal-symmetric": _NormalLaw,
    "unimodal-skewed": _SkewedGammaLaw,
    "bimodal": _BimodalLaw,
    "heteroscedastic": _HeteroGammaLaw,
    "bowtie": _BowtieLaw,
}


@dataclass(frozen=True)
class OracleHandle:
    """True conditional structure of a scenario, for diagnostics."""

    tag: str
    law: _Law

    def mean(self, x):
        return _mean_fn(x)

    def region(self, x, alpha) -> PredictionRegion:
        x = float(np.asarray(x).reshape(-1)[0])
        g = _mean_fn(x)
        return PredictionRegion(
            tuple((g + lo, g + hi) for lo, hi in self.law.hpd_intervals(alpha, x))
        )


def _streams(seed: int):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    base = np.random.Philox(key=key)
    return np.random.Generator(base), np.random.Generator(base.jumped(1))


def generate(scn: Scenario):
    """Draw one replication: observed fold, test fold, oracle handle.

    Covariates are uniform on (-5, 5); the observed and test folds come
    from separate substreams of the scenario's counter-based stream.
    """
    law = _LAWS[scn.tag]()
    obs_rng, test_rng = _streams(scn.seed)

    def draw(rng, n):
        x = rng.uniform(-5.0, 5.0, n)
        eps = law.sample(rng, x)
        return Dataset(x.reshape(-1, 1), _mean_fn(x) + eps)

    observed = draw(obs_rng, scn.n_train + scn.n_cal)
    test = draw(test_rng, scn.n_test)
    return observed, test, OracleHandle(tag=scn.tag, law=law)


def oracle_hpd(scn: Scenario, x) -> PredictionRegion:
    """Exact smallest 1-alpha region at covariate ``x``."""
    law = _LAWS[scn.tag]()
    return OracleHandle(tag=scn.tag, law=law).region(x, scn.alpha)


# ---------------------------------------------------------------------------
# Replication engine


@dataclass(frozen=True)
class RepReport:
    """Per-replication outcome for one method."""

    method: str
    rep: int
    seed: int
    coverage: float
    mean_size: float
    sizes: tuple
    covered: tuple
    x_test: tuple
    wall_time: float
    n_intervals: int
    warnings: int = 0
    error: str | None = None


@dataclass(frozen=True)
class MethodSummary:
    method: str
    n_reps: int
    failures: int
    coverage: float
    coverage_se: float
    mean_size: float
    size_se: float
    mean_runtime_s: float


def _build_plan(n_obs: int, n_train: int, scale_on: bool) -> SplitPlan:
    n1 = n_train // 2 if scale_on else n_train
    return SplitPlan.sequential(np.arange(n_obs), n1, n_train - n1)


def fit_method(tag, observed, plan, alpha, scale_on):
    """Fit one method by tag with the benchmark's default estimators."""
    if tag == "kde-hpd":
        scale = (
            ScaleConfig(kind="knn-quantile-absres", level=0.9)
            if scale_on
            else ScaleConfig(kind="constant-one")
        )
        return fit_kde_hpd(
            observed, plan, alpha, KdeHpdConfig(mean=MeanConfig(), scale=scale)
        )
    if tag == "secpr":
        return fit_secpr(observed, plan, alpha / 2.0, alpha / 2.0)
    if tag == "cqr":
        return fit_cqr(observed, plan, alpha, QuantileConfig(kind="knn-quantile"))
    if tag == "dcp":
        return fit_dcp(
            observed,
            plan,
            alpha,
            QuantileConfig(kind="linear-quantile", feature_map=("raw", "square")),
        )
    if tag == "parametric":
        return fit_parametric_normal(observed, alpha)
    raise ValueError(f"unknown method {tag!r}; valid tags: {', '.join(METHOD_TAGS)}")


def _replicate_one(scn: Scenario, methods, rep: int, scale_on: bool):
    seed_rep = scn.seed + rep
    observed, test, oracle = generate(replace(scn, seed=seed_rep))
    plan = _build_plan(observed.n, scn.n_train, scale_on)
    reports = []
    for tag in methods:
        t0 = _timer()
        try:
            if tag == "oracle":
                regions = [oracle.region(x, scn.alpha) for x in test.x[:, 0]]
                warnings = 0
                n_intervals = max(len(r) for r in regions)
            else:
                model = fit_method(tag, observed, plan, scn.alpha, scale_on)
                regions = model.predict_regions(test.x)
                warnings = getattr(model, "dropped_pairs", 0)
                n_intervals = getattr(model, "n_intervals", 1)
            covered = tuple(
                bool(region_contains(r, yi)) for r, yi in zip(regions, test.y)
            )
            sizes = tuple(float(region_length(r)) for r in regions)
            reports.append(
                RepReport(
                    method=tag,
                    rep=rep,
                    seed=seed_rep,
                    coverage=float(np.mean(covered)),
                    mean_size=float(np.mean(sizes)),
                    sizes=sizes,
                    covered=covered,
                    x_test=tuple(map(float, test.x[:, 0])),
                    wall_time=_timer() - t0,
                    n_intervals=n_intervals,
                    warnings=warnings,
                )
            )
        except Exception as exc:  # noqa: BLE001 - recorded, not silenced
            reports.append(
                RepReport(
                    method=tag,
                    rep=rep,
                    seed=seed_rep,
                    coverage=math.nan,
                    mean_size=math.nan,
                    sizes=(),
                    covered=(),
                    x_test=(),
                    wall_time=_timer() - t0,
                    n_intervals=0,
                    warnings=0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return reports


def run_replications(
    scn: Scenario,
    methods,
    reps: int,
    threads: int = 1,
    scale_model: bool | None = None,
) -> list[RepReport]:
    """Run ``reps`` independent replications of every method.

    ``scale_model=None`` enables the conditional-scale fold exactly for
    the bowtie scenario. Reports come back ordered by (rep, method) and
    are identical for any ``threads`` value.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    methods = tuple(methods)
    for tag in methods:
        if tag not in METHOD_TAGS:
            raise ValueError(
                f"unknown method {tag!r}; valid tags: {', '.join(METHOD_TAGS)}"
            )
    scale_on = scn.tag == "bowtie" if scale_model is None else bool(scale_model)
    if threads > 1:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as pool:
            chunks = pool.map(
                _replicate_star,
                [(scn, methods, rep, scale_on) for rep in range(reps)],
                chunksize=max(1, reps // (4 * threads)),
            )
            nested = list(chunks)
    else:
        nested = [_replicate_one(scn, methods, rep, scale_on) for rep in range(reps)]
    return [report for chunk in nested for report in chunk]


def _replicate_star(args):
    return _replicate_one(*args)


def summarize(reports) -> list[MethodSummary]:
    """Aggregate per-method means with Monte-Carlo standard errors."""
    order = []
    for r in reports:
        if r.method not in order:
            order.append(r.method)
    out = []
    for tag in order:
        rows = [r for r in reports if r.method == tag]
        good = [r for r in rows if r.error is None]
        failures = len(rows) - len(good)
        if not good:
            out.append(
                MethodSummary(tag, len(rows), failures, math.nan, math.nan, math.nan, math.nan, math.nan)
            )
            continue
        cov = np.array([r.coverage for r in good])
        size = np.array([r.mean_size for r in good])
        runt = np.array([r.wall_time for r in good])
        n = len(good)
        cov_se = float(cov.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        size_se = float(size.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        out.append(
            MethodSummary(
                method=tag,
                n_reps=len(rows),
                failures=failures,
                coverage=float(cov.mean()),
                coverage_se=cov_se,
                mean_size=float(size.mean()),
                size_se=size_se,
                mean_runtime_s=float(runt.mean()),
            )
        )
    return out


def conditional_coverage(reports, slicer) -> dict:
    """Coverage within each group that ``slicer`` assigns to a test point.

    Returns ``{label: (coverage, binomial_se, count)}``; groups with no
    points are absent rather than zero.
    """
    hits: dict = {}
    totals: dict = {}
    for r in reports:
        if r.error is not None:
            continue
        for x, c in zip(r.x_test, r.covered):
            label = slicer(x)
            hits[label] = hits.get(label, 0) + bool(c)
            totals[label] = totals.get(label, 0) + 1
    out = {}
    for label, n in totals.items():
        p = hits[label] / n
        out[label] = (p, math.sqrt(max(p * (1.0 - p), 1e-12) / n), n)
    return out


def hausdorff_diagnostic(
    scn: Scenario, method: str, ns, reps: int, x_grid=None, threads: int = 1
) -> list[tuple[int, float]]:
    """Median distance to the oracle region across a sample-size ladder.

    For each total observed size ``n`` (split evenly between training and
    calibration), runs ``reps`` replications, measures the Hausdorff
    distance at each grid covariate, and reports the median. Regions with
    unbounded endpoints count as infinitely far.
    """
    if x_grid is None:
        x_grid = np.linspace(-4.0, 4.0, 5)
    rows = []
    for n in ns:
        scn_n = replace(scn, n_train=n // 2, n_cal=n - n // 2, n_test=1)
        dists = []
        for rep in range(reps):
            seed_rep = scn_n.seed + rep
            observed, _, oracle = generate(replace(scn_n, seed=seed_rep))
            if method == "oracle":
                regions = [oracle.region(x, scn.alpha) for x in x_grid]
            else:
                plan = _build_plan(observed.n, scn_n.n_train, scn.tag == "bowtie")
                model = fit_method(method, observed, plan, scn.alpha, scn.tag == "bowtie")
                regions = model.predict_regions(x_grid.reshape(-1, 1))
            for x, region in zip(x_grid, regions):
                target = oracle.region(x, scn.alpha)
                try:
                    dists.append(hausdorff(region, target))
                except ValueError:
                    dists.append(math.inf)
        rows.append((int(n), float(np.median(dists))))
    return rows
