"""Benchmark for conformal-hpd: one workload per run, closed loop, one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload replication-table --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``replication-table``, ``kde-hpd-fit``
and ``batch-predict``. BENCHMARK.json gates ``replication-table`` and
``batch-predict``; ``kde-hpd-fit`` runs the same way but is left out of
the gate (see ``workloads.KdeHpdFit``). The run builds the workload's inputs from
``--seed``, warms up with one operation, then runs whole passes over the
inputs until ``--seconds`` have passed; the next operation starts when
the previous one returns. BLAS and OpenMP are pinned to one thread before
numpy loads.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs every pass twice, untraced and then traced
(``spans.py``), and reports the per-layer metrics and the tracing
overhead. ``--smoke`` shrinks every input for a quick check.

Lines starting with ``#`` describe the run (metadata, output digest,
checks, the workload's own named metrics). The last line of standard
output is the JSON result: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``failed`` counts operations that raised or failed an
output check; ``error_rate`` is ``failed / attempted``.

``setup_s`` is the median wall time of fresh interpreters that import
the package and build the workload's inputs (``--setup-only``).
"""

import os

# Pin before numpy loads; the BLAS pool otherwise adds run-to-run spread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    """One operation: operation ``i`` of pass ``p``, its time and output."""

    p: int
    i: int
    traced: bool = False
    seconds: float = 0.0
    payload: object = None
    ok: bool = False


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _metadata(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    # The benchmark may run from an exported tree inside some other
    # repository; only trust git when this tree is the top level.
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _time_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    # A plain blocking wait: Popen.wait(timeout=...) polls in steps of up
    # to 50 ms, which would quantise the measurement.
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return elapsed


def _measure(workload, seconds, tracer=None):
    """Whole passes, closed loop, for about ``seconds``.

    With a tracer each pass runs twice on the same inputs, untraced and
    then traced, so both sides of the overhead see the same host speed.
    """
    clock = time.perf_counter
    records = []
    start = clock()
    deadline = start + seconds
    p = 0
    while True:
        pass_start = clock()
        for traced in (False, True) if tracer is not None else (False,):
            with spans.installed(tracer) if traced else contextlib.nullcontext():
                for i in range(workload.pass_size):
                    records.append(_op(workload, p, i, tracer if traced else None))
        p += 1
        # stop at the pass boundary nearest the deadline
        now = clock()
        if now + (now - pass_start) / 2 >= deadline:
            return records, now - start


def _op(workload, p, i, tracer) -> Record:
    span = None
    if tracer is not None:
        tracer.tag = workload.tag(i)
        span = tracer.start("op")
    rec = Record(p=p, i=i, traced=tracer is not None)
    t0 = time.perf_counter()
    try:
        rec.payload = workload.op(p, i)
        rec.ok = workload.op_ok(rec.payload)
    except Exception:  # noqa: BLE001 - an operation failure is counted, not fatal
        traceback.print_exc()
    rec.seconds = time.perf_counter() - t0
    if span is not None:
        tracer.stop(span)
    return rec


def _digest(workload, records) -> str:
    h = hashlib.sha256()
    for rec in records:
        if rec.p == 0:
            out = workload.digest(rec.payload) if rec.payload is not None else None
            h.update(repr(out).encode())
    return h.hexdigest()


def _check(workload, records, notes) -> int:
    """Failed operations: per-op checks plus the aggregate checks."""
    failed = {k for k, rec in enumerate(records) if not rec.ok}
    agg, agg_notes = workload.aggregate_failures(records)
    notes.extend(agg_notes)
    return len(failed | agg)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(records, elapsed, setup_s) -> dict:
    ms = np.array([1e3 * rec.seconds for rec in records])
    return {
        "setup_s": setup_s,
        "ops_per_s": len(records) / elapsed,
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p95": float(np.percentile(ms, 95)),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _emit(name, value, unit):
    print(f"# metric {name} {float(value)!r} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "conformal_hpd" / "__init__.py").is_file():
        print(f"error: no conformal_hpd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.setup_only:
            workload.setup(workdir)
            return 0
        return _run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still has its directory here


def _run(args, workload, workdir) -> int:
    print(f"# bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print("# meta " + json.dumps(_metadata(args.seed), sort_keys=True))
    tracer = spans.Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tracer is None:
        workload.setup(workdir)
    else:
        with spans.installed(tracer):
            root = tracer.start("setup")
            workload.setup(workdir)
            tracer.stop(root)
    print(f"# setup_in_process_s {time.perf_counter() - t0!r}")
    workload.op(0, 0)  # warm-up, untimed and unchecked
    notes = []
    if tracer is None:
        records, elapsed = _measure(workload, args.seconds)
        failed = _check(workload, records, notes)
        digest = _digest(workload, records)
        # set-up is timed in fresh interpreters after the measured loop
        repeats = 1 if args.smoke else SETUP_REPEATS
        setup_s = statistics.median(_time_setup(args) for _ in range(repeats))
        metrics = _end_to_end(records, elapsed, setup_s)
        units = END_TO_END
        for name, value, unit in workload.named(records, elapsed):
            _emit(name, value, unit)
        _emit("setup_s", setup_s, "s")
        _emit("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    else:
        records, _ = _measure(workload, args.seconds, tracer)
        plain = [r for r in records if not r.traced]
        traced = [r for r in records if r.traced]
        failed = _check(workload, plain, notes) + _check(workload, traced, notes)
        with spans.installed(tracer):
            workload.summarize(traced)
        digest = _digest(workload, plain)
        same = _digest(workload, traced) == digest
        notes.append("traced output digest equals untraced: " + ("ok" if same else "FAIL"))
        if not same:
            failed = len(records)
        metrics = spans.layer_metrics(tracer, plain, traced)
        units = spans.LAYER_UNITS
    for note in notes:
        print(f"# check {note}")
    print(f"# digest {digest}")
    print(f"# ops {len(records)} passes {1 + max(r.p for r in records)}")
    _emit("error_rate", failed / len(records), "ratio")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
