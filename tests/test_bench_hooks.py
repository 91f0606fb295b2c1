"""The traced benchmark patches library functions by name.

``bench/spans.py`` replaces functions and methods in the namespaces where
their callers look them up. A rename in the library would otherwise
surface only when the traced benchmark runs; these tests fail first.
"""

import importlib.util
from pathlib import Path

import numpy as np

import conformal_hpd
from conformal_hpd import cli, conformal, hpd, kde, sim
from conformal_hpd.core import Dataset, SplitPlan

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
OWNERS = (
    conformal_hpd,
    cli,
    conformal,
    hpd,
    kde,
    sim,
    conformal.KdeHpdPipeline,
    conformal.SecprModel,
    conformal.CqrModel,
    conformal.DcpModel,
)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def test_install_then_restore_puts_the_originals_back():
    spans = load_spans()
    before = snapshot()
    ins = spans.install(spans.Tracer())
    try:
        patched = snapshot()
    finally:
        ins.restore()
    changed = {
        name
        for old, new in zip(before, patched)
        for name in old
        if new[name] is not old[name]
    }
    assert {"kde_eval", "extract_intervals", "fit_kde_hpd", "predict_regions"} <= changed
    for old, new in zip(before, snapshot()):
        assert new.keys() == old.keys()
        assert all(new[name] is old[name] for name in old)


def test_traced_fit_reaches_the_patched_names():
    spans = load_spans()
    rng = np.random.default_rng(5)
    x = rng.uniform(-5, 5, 400).reshape(-1, 1)
    y = 5 + 2 * x[:, 0] + rng.normal(np.where(rng.random(400) < 0.5, -6.0, 6.0), 1.0)
    plan = SplitPlan.sequential(np.arange(400), 200, 0)
    with spans.installed(spans.Tracer()) as tracer:
        pipe = conformal_hpd.fit_kde_hpd(Dataset(x, y), plan, 0.1)
        conformal_hpd.predict_regions(pipe, x[:5])
    names = {span.name for span in tracer.spans}
    assert {"hpd.extract_intervals", "conformal.predict_regions.kde-hpd"} <= names
    assert tracer.counts["hpd.kde_eval_calls"] > 0
