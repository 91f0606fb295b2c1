"""Benchmark scenario generators, oracle regions, and the replication engine.

Random streams are counter-based (Philox): each replication keys its own
stream from ``base seed + rep index``, with the observed and test folds on
separate substreams, so any worker count produces identical reports.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import repeat

import numpy as np

from conformal_hpd.conformal import (
    KdeHpdConfig,
    fit_cqr,
    fit_dcp,
    fit_kde_hpd,
    fit_parametric_normal,
    fit_secpr,
)
from conformal_hpd.core import (
    ConfigError,
    Dataset,
    RegionBatch,
    SplitPlan,
    check_alpha,
    hausdorff,
    region_contains,  # noqa: F401 - stays patchable here for tracing
    region_length,  # noqa: F401 - stays patchable here for tracing
    score_intervals,
)
from conformal_hpd.hpd import find_cutoff, superlevel_intervals
from conformal_hpd.regress import ScaleConfig, _as_matrix

__all__ = [
    "SCENARIO_TAGS",
    "METHOD_TAGS",
    "FIT_TAGS",
    "Scenario",
    "RepReport",
    "MethodSummary",
    "generate",
    "use_scale",
    "fit_draw",
    "run_replications",
    "summarize",
    "conditional_coverage",
    "hausdorff_diagnostic",
    "fit_method",
    "check_methods",
]

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
            raise ConfigError(
                f"unknown scenario {self.tag!r}; valid tags: {', '.join(SCENARIO_TAGS)}"
            )
        if min(self.n_train, self.n_cal, self.n_test) < 1:
            raise ConfigError("fold sizes must be >= 1")
        check_alpha(self.alpha)


def _mean_fn(x: np.ndarray) -> np.ndarray:
    return 5.0 + 2.0 * x


# ---------------------------------------------------------------------------
# Oracle residual laws and smallest 1-alpha sets


def _level_set(pdf, cdf, lo: float, hi: float, alpha: float):
    """Smallest 1-alpha set of an analytic law on [lo, hi], as a tuple of intervals."""
    grid = np.linspace(lo, hi, 4096)
    values = pdf(grid)
    lam = find_cutoff(pdf, cdf, grid, values, alpha)
    return tuple(map(tuple, superlevel_intervals(pdf, grid, values, lam).tolist()))


# The laws' closed forms, written as scipy's distribution objects evaluate
# them, so the oracle regions keep their bits without scipy.stats (about
# 1 s to import). scipy.special (about 0.2 s and 25 MB) is imported where one is
# computed, and by run_replications before its pool forks: other runs never load it.


def _norm_pdf(z):
    return np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)


@lru_cache(maxsize=4096)
def _gamma_hpd(shape: float, rate: float, alpha: float):
    from scipy.special import gammainc, gammaincinv, gammaln, xlogy

    # The level-set search only evaluates z in [0, end], inside the support,
    # so the formulas need no mask for z < 0.
    scale = 1.0 / rate

    def pdf(z):
        y = z / scale
        return np.exp(xlogy(shape - 1.0, y) - y - gammaln(shape)) / scale

    cdf = lambda z: gammainc(shape, z / scale)
    end = float(gammaincinv(shape, 1.0 - 1e-12) * scale)
    return _level_set(pdf, cdf, 0.0, end, alpha)


@lru_cache(maxsize=64)
def _mixture_hpd(alpha: float):
    from scipy.special import ndtr

    pdf = lambda z: 0.5 * _norm_pdf(z + 6.0) + 0.5 * _norm_pdf(z - 6.0)
    cdf = lambda z: 0.5 * ndtr(z + 6.0) + 0.5 * ndtr(z - 6.0)
    return _level_set(pdf, cdf, -14.0, 14.0, alpha)


class _NormalLaw:
    def __init__(self, sd):
        self.sd = sd

    def sample(self, rng, x):
        return rng.normal(0.0, self.sd(x))

    def hpd_intervals(self, alpha, x):
        from scipy.special import ndtri

        z = ndtri(1.0 - alpha / 2.0) * self.sd(x)
        return np.stack([-z, z], axis=-1)[:, None]


class _GammaLaw:
    def __init__(self, shape, rate):
        self.shape, self.rate = shape, rate

    def sample(self, rng, x):
        return rng.gamma(self.shape(x), 1.0 / self.rate(x))

    def hpd_intervals(self, alpha, x):
        # Python's round keys the cache, one lookup per x
        shapes, rates = ([round(v, 12) for v in f(x).tolist()] for f in (self.shape, self.rate))
        return np.reshape([_gamma_hpd(s, r, alpha) for s, r in zip(shapes, rates)], (-1, 1, 2))


class _BimodalLaw:
    def sample(self, rng, x):
        comp = rng.random(x.shape[0]) < 0.5
        return rng.normal(np.where(comp, -6.0, 6.0), 1.0)

    def hpd_intervals(self, alpha, x):
        ivals = _mixture_hpd(alpha)
        return np.broadcast_to(ivals, (x.size, len(ivals), 2))


def _hetero_shape(x):  # as shape and rate: unit mean at every x, variance shrinking in |x|
    return 1.0 + 2.0 * np.abs(x)


# each scenario's residual law: a normal or gamma family with parameters in x, or the mixture
_LAWS = {
    "unimodal-symmetric": _NormalLaw(np.ones_like),
    "unimodal-skewed": _GammaLaw(partial(np.full_like, fill_value=7.5), np.ones_like),
    "bimodal": _BimodalLaw(),
    "heteroscedastic": _GammaLaw(_hetero_shape, _hetero_shape),
    "bowtie": _NormalLaw(np.abs),
}
SCENARIO_TAGS = tuple(_LAWS)


@dataclass(frozen=True)
class OracleHandle:
    """The exact smallest 1-alpha regions of a scenario's law, as a model.

    ``law`` is one of the residual laws in ``_LAWS``. Its ``hpd_intervals(alpha, x)``
    gives the smallest 1-alpha set at every entry of a 1-D ``x`` as an (n, J, 2)
    array: the same J at every x, each set's intervals in increasing order. So the
    regions of a covariate batch stack into one :class:`RegionBatch` as it checks them.
    """

    law: object
    alpha: float

    def predict_regions(self, xs) -> RegionBatch:
        x = _as_matrix(xs, 1)[:, 0]
        ivals = self.law.hpd_intervals(self.alpha, x)
        g = _mean_fn(x)[:, None]
        return RegionBatch(g + ivals[..., 0], g + ivals[..., 1])


def _streams(seed: int):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    base = np.random.Philox(key=key)
    return np.random.Generator(base), np.random.Generator(base.jumped(1))


def generate(scn: Scenario):
    """Draw one replication: observed fold, test fold, oracle handle.

    Covariates are uniform on (-5, 5); the observed and test folds come
    from separate substreams of the scenario's counter-based stream.
    """
    law = _LAWS[scn.tag]
    obs_rng, test_rng = _streams(scn.seed)

    def draw(rng, n):
        x = rng.uniform(-5.0, 5.0, n)
        eps = law.sample(rng, x)
        return Dataset(x.reshape(-1, 1), _mean_fn(x) + eps)

    observed = draw(obs_rng, scn.n_train + scn.n_cal)
    test = draw(test_rng, scn.n_test)
    return observed, test, OracleHandle(law, scn.alpha)


# ---------------------------------------------------------------------------
# Replication engine


@dataclass(frozen=True, slots=True)
class RepReport:
    """Per-replication outcome for one method; fields after ``seed`` default to a failed fit's."""

    method: str
    rep: int
    seed: int
    coverage: float = math.nan
    mean_size: float = math.nan
    sizes: array | tuple = ()  # per test point, as covered (0 or 1) and x_test: flat arrays
    covered: array | tuple = ()
    x_test: array | tuple = ()
    wall_time: float = 0.0
    n_intervals: int = 0  # the most intervals in one test region
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


def use_scale(scale_model: bool | None, tag: str) -> bool:
    """Whether to fit the conditional scale; ``None`` (auto): exactly for bowtie's sd-|x| law."""
    return getattr(_LAWS.get(tag), "sd", None) is np.abs if scale_model is None else bool(scale_model)


# Each fit with the benchmark's default estimators. The fit functions are looked
# up by name at call time, so a wrapper installed on this module sees every call.
_FITS = {
    "kde-hpd": lambda data, plan, alpha, scale_on: fit_kde_hpd(
        data, plan, alpha,
        KdeHpdConfig(ScaleConfig("knn-quantile-absres", level=0.9) if scale_on else ScaleConfig()),
    ),
    "secpr": lambda data, plan, alpha, scale_on: fit_secpr(data, plan, alpha),
    "cqr": lambda data, plan, alpha, scale_on: fit_cqr(data, plan, alpha),
    "dcp": lambda data, plan, alpha, scale_on: fit_dcp(data, plan, alpha),
    "parametric": lambda data, plan, alpha, scale_on: fit_parametric_normal(data, alpha),
}
FIT_TAGS = tuple(_FITS)
METHOD_TAGS = (*FIT_TAGS, "oracle")


def check_methods(tags, valid=METHOD_TAGS) -> None:
    """Raise ConfigError on no ``tags``, or naming the first one not in ``valid`` or repeated."""
    if not tags:
        raise ConfigError("no methods given")
    for i, tag in enumerate(tags):
        if tag not in valid:
            raise ConfigError(f"unknown method {tag!r}; valid tags: {', '.join(valid)}")
        if tag in tags[:i]:
            raise ConfigError(f"method {tag!r} given more than once")


def fit_method(tag, observed, plan, alpha, scale_on):
    """Fit one method by tag with the benchmark's default estimators."""
    check_methods([tag], FIT_TAGS)
    return _FITS[tag](observed, plan, alpha, scale_on)


def fit_draw(scn: Scenario, tag: str, draw, scale_on: bool):
    """``tag`` fitted on the observed fold of ``draw = generate(scn)``, or the draw's oracle.

    The first ``scn.n_train`` rows train (halved into train1 and train2 with the scale on).
    """
    observed, _, oracle = draw
    if tag == "oracle":
        return oracle
    n1 = scn.n_train // 2 if scale_on else scn.n_train
    plan = SplitPlan.sequential(np.arange(observed.n), n1, scn.n_train - n1)
    return fit_method(tag, observed, plan, scn.alpha, scale_on)


def _replicate_one(scn: Scenario, methods, rep: int, scale_on: bool):
    scn = replace(scn, seed=scn.seed + rep)
    draw = generate(scn)
    test = draw[1]
    x_test = array("d", test.x[:, 0].tobytes())  # one copy shared by every method's report
    reports = []
    for tag in methods:
        t0 = time.perf_counter()
        try:
            model = fit_draw(scn, tag, draw, scale_on)
            batch = model.predict_regions(test.x)
            rows, _, lo, hi = batch.flat()
            covered, sizes = score_intervals(rows, lo, hi, test.y)
            outcome = dict(
                coverage=float(np.mean(covered)),
                mean_size=float(np.mean(sizes)),
                sizes=array("d", sizes.tobytes()),
                covered=array("b", covered.tobytes()),
                x_test=x_test,
                n_intervals=int(batch.counts.max()),
            )
        except Exception as exc:  # noqa: BLE001 - recorded, not silenced
            outcome = dict(error=f"{type(exc).__name__}: {exc}")
        reports.append(RepReport(tag, rep, scn.seed, wall_time=time.perf_counter() - t0, **outcome))
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
    are identical for any ``threads`` value; at most one worker per replication.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    methods = tuple(methods)
    check_methods(methods)
    scale_on = use_scale(scale_model, scn.tag)
    workers = min(threads, reps)  # a fork pool starts every worker at once
    if workers > 1:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        if {"oracle", "parametric"} & set(methods):
            import scipy.special  # noqa: F401 - once here, not once in each forked worker
        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            nested = list(pool.map(
                _replicate_one, repeat(scn), repeat(methods), range(reps), repeat(scale_on),
                chunksize=max(1, reps // (4 * workers)),
            ))
    else:
        nested = [_replicate_one(scn, methods, rep, scale_on) for rep in range(reps)]
    return [report for chunk in nested for report in chunk]


def _mean_se(values) -> tuple:
    """Mean and Monte-Carlo SE; NaN when empty, an infinite SE when a value is infinite."""
    a = np.array(values)
    if a.size == 0:
        return math.nan, math.nan
    if np.isinf(a).any():  # an unbounded region: the spread is infinite too
        return float(a.mean()), math.inf
    return float(a.mean()), float(a.std(ddof=1) / math.sqrt(a.size)) if a.size > 1 else 0.0


def summarize(reports) -> list[MethodSummary]:
    """Aggregate per-method means with Monte-Carlo standard errors, methods in first-seen order."""
    out = []
    for tag in dict.fromkeys(r.method for r in reports):
        rows = [r for r in reports if r.method == tag]
        good = [r for r in rows if r.error is None]
        # (mean, standard error) pairs, in MethodSummary's field order
        cov, size, runtime = (
            _mean_se([getattr(r, f) for r in good]) for f in ("coverage", "mean_size", "wall_time")
        )
        out.append(MethodSummary(tag, len(rows), len(rows) - len(good), *cov, *size, runtime[0]))
    return out


def conditional_coverage(reports, slicer) -> dict:
    """Coverage within each group that ``slicer`` assigns to a test point.

    Returns ``{label: (coverage, binomial_se, count)}``, labels in the order
    they first appear; groups with no points are absent rather than zero.
    """
    tally: dict = {}  # label -> (hits, count)
    for r in reports:
        if r.error is None:
            for x, c in zip(r.x_test, r.covered):
                label = slicer(x)
                hits, n = tally.get(label, (0, 0))
                tally[label] = (hits + bool(c), n + 1)
    out = {}
    for label, (hits, n) in tally.items():
        p = hits / n
        out[label] = (p, math.sqrt(max(p * (1.0 - p), 1e-12) / n), n)
    return out


def hausdorff_diagnostic(scn: Scenario, method: str, ns, reps: int) -> list[tuple[int, float]]:
    """Median distance to the oracle region across a sample-size ladder.

    For each total observed size ``n`` (split evenly between training and
    calibration), runs ``reps`` replications, measures the Hausdorff
    distance at the covariates -4, -2, 0, 2, 4, and reports the median.
    Regions with unbounded endpoints count as infinitely far.
    """
    grid = np.linspace(-4.0, 4.0, 5).reshape(-1, 1)
    scale_on = use_scale(None, scn.tag)
    target = OracleHandle(_LAWS[scn.tag], scn.alpha).predict_regions(grid)
    rows = []
    for n in ns:
        dists = []
        for rep in range(reps):
            scn_r = replace(scn, n_train=n // 2, n_cal=n - n // 2, n_test=1, seed=scn.seed + rep)
            model = fit_draw(scn_r, method, generate(scn_r), scale_on)
            dists.extend(hausdorff(model.predict_regions(grid), target).tolist())
        rows.append((int(n), float(np.median(dists))))
    return rows
