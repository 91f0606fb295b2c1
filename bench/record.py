"""Run every workload untraced and traced and print all metrics by name and unit.

    python3 bench/record.py [--seed N] [--seconds S] [--out bench/results/BENCH_<n>.json]

The workloads are the two of BENCHMARK.json and ``kde-hpd-fit``. Each
run is a separate ``run.py`` process, one after another. The table
lists, per workload, the end-to-end metrics of BENCHMARK.json, the
workload's own named metrics (``replications_per_s``,
``fit_predict_ms_p50``, ``predict_rows_per_s``, ...), ``error_rate``, the
output digest, the tracing overhead, and the per-layer metrics that the
workload exercised. ``--out`` also writes everything, with the run
metadata, as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 600
# Every workload with the metrics it prints besides the result line. The
# gated ones are listed in BENCHMARK.json; kde-hpd-fit is run here too.
NAMED = {
    "replication-table": {"replications_per_s": "1/s"},
    "kde-hpd-fit": {"fit_predict_ms_p50": "ms", "fit_predict_ms_p95": "ms"},
    "batch-predict": {"predict_rows_per_s": "1/s", "evaluate_rows_per_s": "1/s"},
}


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke=False):
    """One ``run.py`` process; returns its exit code, result and ``#`` lines."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    out = {"returncode": proc.returncode, "stderr": proc.stderr, "result": None,
           "named": {}, "checks": [], "meta": None, "digest": None}
    if proc.returncode != 0 or not lines:
        return out
    out["result"] = json.loads(lines[-1])
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")[2].partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            out["named"][name] = {"value": float(value), "unit": unit}
        elif kind == "check":
            out["checks"].append(rest)
        elif kind == "meta":
            out["meta"] = json.loads(rest)
        elif kind == "digest":
            out["digest"] = rest
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in NAMED:
        runs = {t: run_workload(name, args.seed, args.seconds, t) for t in (0, 1)}
        entry = {}
        for trace, run in runs.items():
            res = run["result"]
            if res is None:
                print(f"{name} trace={trace}: exit {run['returncode']}\n{run['stderr']}")
                ok = False
                continue
            ok &= res["correct"]
            report["meta"] = run["meta"]
            entry[f"trace{trace}"] = {k: run[k] for k in ("result", "named", "checks", "digest")}
        report["workloads"][name] = entry
        _print(name, entry)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def _print(name, entry) -> None:
    print(f"== {name}")
    for trace in ("trace0", "trace1"):
        if trace not in entry:
            continue
        e = entry[trace]
        res = e["result"]
        print(f"  [{trace}] correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} digest={e['digest'][:16]}")
        rows = dict(res["metrics"]) if trace == "trace0" else {}
        rows.update(e["named"])
        if trace == "trace1":
            rows.update({k: v for k, v in res["metrics"].items() if v["value"] != 0})
        for metric, v in rows.items():
            print(f"    {metric:48s} {v['value']:16.6g} {v['unit']}")
        for check in e["checks"]:
            print(f"    check {check}")


if __name__ == "__main__":
    sys.exit(main())
