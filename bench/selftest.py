"""Self-test of the benchmark at smoke size; exits 0 when every check passes.

    python3 bench/selftest.py

Checks that every workload, gated or not, exits 0 untraced and traced
with a correct result whose metrics are exactly the end-to-end or
per-layer metrics of BENCHMARK.json, with their units and finite values
(end-to-end values above 0); that the untraced run prints each workload's
named metrics and ``error_rate``; and that a tree holding only
BENCHMARK.json and the benchmark fails without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from record import NAMED, ROOT, RUN, run_workload

BENCH = Path(__file__).resolve().parent

EVERY_WORKLOAD = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


def _check_run(name, trace, expected, run, problems) -> None:
    where = f"{name} trace={trace}"
    res = run["result"]
    if res is None:
        problems.append(f"{where}: exit {run['returncode']}: {run['stderr'][-500:]}")
        return
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        problems.append(f"{where}: correct={res['correct']} failed={res['failed']}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} != {expected}")
    for metric, v in res["metrics"].items():
        value = v["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {metric} = {value!r}")
        elif trace == 0 and value <= 0:
            problems.append(f"{where}: {metric} = {value!r} is not above 0")
    if trace == 0:
        for metric, unit in {**NAMED[name], **EVERY_WORKLOAD}.items():
            if run["named"].get(metric, {}).get("unit") != unit:
                problems.append(f"{where}: named metric {metric} [{unit}] missing")
    if not run["digest"]:
        problems.append(f"{where}: no output digest")


def _check_bare_tree(problems) -> None:
    # The benchmark must refuse to run without the package sources.
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / BENCH.name / RUN.name), "--workload",
             "kde-hpd-fit", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare tree: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    if not {w["name"] for w in spec["workloads"]} <= set(NAMED):
        problems.append("BENCHMARK.json names a workload the benchmark does not have")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in NAMED:
        for trace, expected in ((0, e2e), (1, layers)):
            run = run_workload(name, seed=3, seconds=1, trace=trace, smoke=True)
            _check_run(name, trace, expected, run, problems)
    _check_bare_tree(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
