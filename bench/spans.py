"""In-memory span recorder and the wrappers that attach it to the library.

Spans are recorded from the benchmark's side of each layer boundary: the
wrappers replace public functions in the namespace where their callers
look them up (``conformal.fit_kde``, ``hpd.kde_eval``, ``cli.fit_method``,
...) and restore the originals when the traced run ends. Nothing under
``src/`` is edited.

Three wrapper kinds keep overhead proportional to what is measured:

- span: a record with name, start, end, parent span and scenario tag, kept in
  memory. Self time is the span's duration minus the time its direct
  children cover.
- leaf: for per-row helpers called hundreds of thousands of times
  (``coalesce``, ``region_contains``, ...). Only a per-name call count and
  total are kept; the time is still charged to the enclosing span as
  child time.
- count: no clock reads, only counters (kernel evaluations).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "tag", "start", "end", "child", "rows")

    def __init__(self, sid, name, parent, tag, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.tag = tag
        self.start = start
        self.end = start
        self.child = 0.0
        self.rows = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Span stack for one single-threaded run, plus leaf totals and counters.

    ``tag`` labels the spans opened while it is set (the benchmark sets it
    to the scenario of the current operation).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.tag = ""
        self._stack: list[Span] = []
        self._next_id = 0

    def start(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        span = Span(
            self._next_id,
            name,
            parent.id if parent else None,
            self.tag,
            self.clock(),
        )
        self._stack.append(span)
        return span

    def stop(self, span: Span, rows: int = 0) -> None:
        span.end = self.clock()
        span.rows = rows
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if self._stack:
            self._stack[-1].child += span.duration
        self.spans.append(span)

    def add_leaf(self, name: str, seconds: float) -> None:
        self.leaf_calls[name] += 1
        self.leaf_time[name] += seconds
        if self._stack:
            self._stack[-1].child += seconds

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += int(value)


class Instrumentation:
    """Installs wrappers on module or class attributes; ``restore`` undoes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def _original(owner, attr):
        # a class attribute is taken from __dict__ so it is re-bound as a method
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def _install(self, owner, attr, original, wrapper) -> None:
        functools.update_wrapper(wrapper, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, rows=None, after=None) -> None:
        """Wrap ``owner.attr`` in a span; ``name`` may be a callable of the args."""
        tracer = self.tracer
        original = self._original(owner, attr)

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = tracer.start(label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.stop(span, rows(*args, **kwargs) if rows else 0)
            if after is not None:
                after(result)
            return result

        self._install(owner, attr, original, wrapper)

    def leaf(self, owner, attr, name) -> None:
        tracer = self.tracer
        clock = tracer.clock
        original = self._original(owner, attr)

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.add_leaf(name, clock() - t0)

        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr, on_call) -> None:
        """Call ``on_call(*args)`` before each call; no clock reads."""
        original = self._original(owner, attr)

        def wrapper(*args, **kwargs):
            on_call(*args, **kwargs)
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _rows(x) -> int:
    return np.shape(x)[0] if np.ndim(x) else 1


def _quantile_kind(data, levels, config=None):
    kind = config.kind if config is not None else "knn-quantile"
    return "regress.fit_quantile_ladder." + ("linear" if kind == "linear-quantile" else "knn")


def install(tracer: Tracer) -> Instrumentation:
    """Attach ``tracer`` at every layer boundary the benchmark reports."""
    import conformal_hpd
    from conformal_hpd import cli, conformal, hpd, kde, sim

    ins = Instrumentation(tracer)

    def kernel_evals(model, z, *_, **__):
        tracer.count("kde.kernel_evals", np.size(z) * model.n)

    def hpd_kde_eval(model, z, *_, **__):
        tracer.count("hpd.kde_eval_calls")
        kernel_evals(model, z)

    # kde: the grid evaluation in KdeModel looks up kde.kde_eval; the hpd
    # module holds its own references to kde_eval and kde_cdf.
    ins.span(conformal, "fit_kde", "kde.fit_kde")
    ins.span(kde, "bandwidth", "kde.bandwidth")
    ins.count(kde, "kde_eval", kernel_evals)
    ins.count(hpd, "kde_eval", hpd_kde_eval)
    ins.count(hpd, "kde_cdf", kernel_evals)

    # hpd
    ins.span(
        conformal,
        "smallest_mass_region",
        "hpd.smallest_mass_region",
        after=lambda res: tracer.count("hpd.components_kept", len(res.intervals)),
    )
    ins.span(hpd, "find_cutoff", "hpd.find_cutoff")
    ins.span(
        hpd,
        "extract_intervals",
        "hpd.extract_intervals",
        after=lambda res: tracer.count("hpd.components_found", len(res)),
    )
    ins.span(hpd, "quantile_pairs", "hpd.quantile_pairs")

    # core: per-row helpers and the conformal rank rule
    ins.leaf(conformal, "coalesce", "core.coalesce")
    ins.leaf(conformal, "conformal_q", "core.conformal_q")
    ins.leaf(conformal, "conformal_r", "core.conformal_r")
    ins.leaf(sim, "region_contains", "core.region_contains")
    ins.leaf(sim, "region_length", "core.region_length")

    # regress: estimators as the conformal pipelines call them
    ins.span(conformal, "fit_mean", "regress.fit_mean")
    ins.span(conformal, "fit_scale", "regress.fit_scale")
    ins.span(conformal, "fit_quantile_ladder", _quantile_kind)
    ins.span(conformal, "predict_mean", "regress.predict_mean", rows=lambda gh, x: _rows(x))
    ins.span(conformal, "predict_scale", "regress.predict_scale", rows=lambda sh, x: _rows(x))
    ins.span(
        conformal,
        "predict_quantile",
        "regress.predict_quantile",
        rows=lambda qe, x, level=None: _rows(x),
    )

    # conformal: fits where sim.fit_method and the package namespace look
    # them up, and predict_regions on each model class
    def dropped(res):
        tracer.count("conformal.dropped_pairs", res.dropped_pairs)

    for owner in (sim, conformal_hpd):
        ins.span(owner, "fit_kde_hpd", "conformal.fit.kde-hpd", after=dropped)
    ins.span(sim, "fit_secpr", "conformal.fit.secpr")
    ins.span(sim, "fit_cqr", "conformal.fit.cqr")
    ins.span(sim, "fit_dcp", "conformal.fit.dcp")
    for cls in (
        conformal.KdeHpdPipeline,
        conformal.SecprModel,
        conformal.CqrModel,
        conformal.DcpModel,
    ):
        ins.span(
            cls,
            "predict_regions",
            f"conformal.predict_regions.{cls.method}",
            rows=lambda self, xs: _rows(xs),
        )

    # sim and cli; cli.main spans are named after the subcommand
    ins.span(sim, "generate", "sim.generate")
    ins.span(conformal_hpd, "summarize", "sim.summarize")
    ins.span(cli, "fit_method", "cli.fit_method")
    ins.span(cli, "main", lambda argv=None: f"cli.{argv[0]}")
    return ins


@contextmanager
def installed(tracer: Tracer):
    ins = install(tracer)
    try:
        yield tracer
    finally:
        ins.restore()


SCENARIOS = (
    "unimodal-symmetric",
    "unimodal-skewed",
    "bimodal",
    "heteroscedastic",
    "bowtie",
)
METHODS = ("kde-hpd", "secpr", "cqr", "dcp")

# Per-layer metrics and their units. ``.ms`` and ``.us`` are the mean
# inclusive time per call; ``.us_per_row`` is inclusive time over rows;
# counts are totals per workload operation; ``cli.predict.io_ms`` is the
# mean self time of ``cli.main(["predict", ...])``, i.e. without its fit
# and predict_regions spans.
LAYER_UNITS = {
    "kde.fit_kde.ms": "ms",
    "kde.kernel_evals": "count",
    "kde.bandwidth.us": "us",
    "hpd.find_cutoff.ms": "ms",
    "hpd.extract_intervals.ms": "ms",
    "hpd.quantile_pairs.ms": "ms",
    "hpd.kde_eval_calls": "count",
    "hpd.components_found": "count",
    "hpd.components_kept": "count",
    "core.coalesce.us_per_row": "us/row",
    "core.region_contains.us_per_row": "us/row",
    "core.region_length.us_per_row": "us/row",
    "core.conformal_q.us": "us",
    "core.conformal_r.us": "us",
    "regress.fit_quantile_ladder.linear.ms": "ms",
    "regress.fit_quantile_ladder.knn.ms": "ms",
    "regress.predict_quantile.us_per_row": "us/row",
    "regress.predict_scale.us_per_row": "us/row",
    "regress.fit_mean.ms": "ms",
    "regress.fit_scale.ms": "ms",
    "regress.predict_mean.us_per_row": "us/row",
    **{f"conformal.fit.{m}.ms": "ms" for m in METHODS},
    **{f"conformal.fit.kde-hpd.{s}.ms": "ms" for s in SCENARIOS},
    **{f"conformal.predict_regions.{m}.us_per_row": "us/row" for m in METHODS},
    "conformal.dropped_pairs": "count",
    "sim.generate.ms": "ms",
    "sim.score.us_per_row": "us/row",
    "sim.summarize.ms": "ms",
    "cli.predict.io_ms": "ms",
    "cli.evaluate.ms": "ms",
    "trace.overhead_pct": "%",
}

_SCALE = {"ms": 1e3, "us": 1e6}


def layer_metrics(tracer: Tracer, untraced, traced) -> dict:
    """Every LAYER_UNITS metric; a layer that never ran reports 0.

    ``untraced`` and ``traced`` are the runner's records for the same
    inputs; the overhead compares their median operation times.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    rows = defaultdict(int)
    for s in tracer.spans:
        names = [s.name]
        if s.name == "conformal.fit.kde-hpd":
            names.append(f"conformal.fit.kde-hpd.{s.tag}")
        for name in names:
            calls[name] += 1
            total[name] += s.duration
            self_total[name] += s.self_time
            rows[name] += s.rows
    for name, n in tracer.leaf_calls.items():
        calls[name] += n
        total[name] += tracer.leaf_time[name]
        rows[name] += n

    def per_call(name):
        return total[name] / calls[name] if calls[name] else 0.0

    def per_row(name):
        return total[name] / rows[name] if rows[name] else 0.0

    scored = calls["core.region_contains"]
    predicts = calls["cli.predict"]
    plain_s = float(np.median([r.seconds for r in untraced]))
    traced_s = float(np.median([r.seconds for r in traced]))
    derived = {
        "sim.score.us_per_row": (
            1e6 * (total["core.region_contains"] + total["core.region_length"]) / scored
            if scored
            else 0.0
        ),
        "cli.predict.io_ms": 1e3 * self_total["cli.predict"] / predicts if predicts else 0.0,
        "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }
    out = {}
    for metric, unit in LAYER_UNITS.items():
        if metric in derived:
            out[metric] = derived[metric]
        elif unit == "count":
            out[metric] = tracer.counts[metric] / len(traced)
        elif unit == "us/row":
            out[metric] = 1e6 * per_row(metric[: -len(".us_per_row")])
        else:
            out[metric] = _SCALE[unit] * per_call(metric.rsplit(".", 1)[0])
    return out
