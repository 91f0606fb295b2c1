"""The benchmark's contract with the library.

``bench/spans.py`` replaces functions and methods in the namespaces where
their callers look them up, and ``bench/workloads.py`` builds configs and
split plans through the public API. A rename or a dropped argument in the
library would otherwise surface only when the benchmark runs; these tests
fail first.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conformal_hpd
from conformal_hpd import cli, conformal, hpd, kde, sim
from conformal_hpd.core import Dataset, SplitPlan

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
RUN_PATH = BENCH_DIR / "run.py"
SPANS_PATH = BENCH_DIR / "spans.py"
WORKLOADS_PATH = BENCH_DIR / "workloads.py"
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


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_module("bench_spans", SPANS_PATH)


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
    assert {
        "conformal.fit.kde-hpd",
        "kde.bandwidth",
        "regress.fit_mean",
        "regress.fit_scale",
        "regress.predict_mean",
        "regress.predict_scale",
        "conformal.predict_regions.kde-hpd",
    } <= {span.name for span in tracer.spans}
    assert tracer.leaf_calls["core.conformal_q"] == 1
    # the kde-hpd fit no longer reaches the exact KDE or the level-set search;
    # their wrappers still measure a direct call
    with spans.installed(spans.Tracer()) as tracer:
        model = conformal.fit_kde(y[:200])
        conformal.smallest_mass_region(model, 0.1)
    assert {
        "kde.fit_kde",
        "hpd.smallest_mass_region",
        "hpd.find_cutoff",
        "hpd.extract_intervals",
        "hpd.quantile_pairs",
    } <= {span.name for span in tracer.spans}
    assert tracer.counts["hpd.kde_eval_calls"] > 0
    assert tracer.counts["hpd.components_kept"] == 2


@pytest.mark.parametrize("name", ["replication-table", "kde-hpd-fit", "batch-predict"])
def test_workload_runs_one_smoke_operation(name, tmp_path):
    workloads = load_module("bench_workloads", WORKLOADS_PATH)
    workload = workloads.WORKLOADS[name](1, smoke=True)
    workload.setup(str(tmp_path))
    assert workload.op_ok(workload.op(0, 0))


# Output digests of ``bench/run.py --seed 1 --seconds 0 --smoke``: a hash of
# every result of the first pass (replication reports, fitted intervals,
# predictions.csv + metrics.csv bytes). A speed change must leave them
# as they are; a change that alters outputs on purpose updates them and
# says so in CHANGES.md.
SMOKE_DIGESTS = {
    "replication-table": "ee09b76c3af7002932da8a9a9a1ce6006501eea98ceba5a0ca686ae7543b430f",
    "kde-hpd-fit": "5ef6d605fe40bc6492e896faca1dd34cced177bdc3ee16279ef0f299a385fe6e",
    "batch-predict": "55dee4117cef0bebf090ee0ee86b0df1007ee2fa3cc4e8991aba9567d909673e",
}


def smoke_run(name, *extra):
    """The output lines of ``bench/run.py --workload name --seed 1 --seconds 0 --smoke``, plus ``extra``."""
    run = subprocess.run(
        [sys.executable, str(RUN_PATH), "--workload", name, "--seed", "1",
         "--seconds", "0", "--smoke", *extra],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    return run.stdout.splitlines()


@pytest.mark.parametrize("name", sorted(SMOKE_DIGESTS))
def test_smoke_run_reproduces_the_output_digest(name):
    digests = [line for line in smoke_run(name) if line.startswith("# digest ")]
    assert digests == [f"# digest {SMOKE_DIGESTS[name]}"]


@pytest.mark.parametrize("name", ["replication-table", "batch-predict"])
def test_traced_smoke_run_reproduces_the_untraced_digest(name):
    # the gated workloads: a traced run's per-layer numbers come from the same outputs
    lines = smoke_run(name, "--trace", "1")
    assert "# check traced output digest equals untraced: ok" in lines
    assert f"# digest {SMOKE_DIGESTS[name]}" in lines
