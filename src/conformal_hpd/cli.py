"""Command-line front end: simulate, predict, evaluate, regions.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
All CSV output uses ``\\n`` line endings, no BOM, and shortest round-trip
float formatting with infinities spelled ``inf`` / ``-inf``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from conformal_hpd.core import Dataset, SplitPlan
from conformal_hpd.sim import (
    METHOD_TAGS,
    Scenario,
    fit_method,
    generate,
    oracle_hpd,
    run_replications,
    summarize,
)

__all__ = ["main"]


class UsageError(Exception):
    """Invalid flags, files, or configuration; maps to exit code 2."""


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _json_safe(node):
    if isinstance(node, float) and not math.isfinite(node):
        return _fmt(node)
    if isinstance(node, dict):
        return {k: _json_safe(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_json_safe(v) for v in node]
    return node


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _read_table(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise UsageError(f"{path}: empty file, header row required")
            rows = list(reader)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise UsageError(
                f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
            )
    return header, rows


def _parse_cell(path, header, row_idx, col_idx, cell):
    text = cell.strip()
    if text == "":
        raise UsageError(
            f"{path}: missing value at row {row_idx}, column {header[col_idx]!r}"
        )
    try:
        return float(text)
    except ValueError:
        raise UsageError(
            f"{path}: non-numeric value {cell!r} at row {row_idx},"
            f" column {header[col_idx]!r}"
        ) from None


def _read_numeric_csv(path):
    header, rows = _read_table(path)
    data = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows, start=1):
        for j, cell in enumerate(row):
            data[i - 1, j] = _parse_cell(path, header, i, j, cell)
    return header, data


def _dataset_from_csv(path, target):
    header, data = _read_numeric_csv(path)
    if target not in header:
        raise UsageError(f"{path}: target column {target!r} not found")
    t = header.index(target)
    covariates = [j for j in range(len(header)) if j != t]
    if not covariates:
        raise UsageError(f"{path}: no covariate columns besides the target")
    names = [header[j] for j in covariates]
    return names, Dataset(data[:, covariates], data[:, t])


def _covariates_from_csv(path, names):
    header, data = _read_numeric_csv(path)
    missing = [n for n in names if n not in header]
    if missing:
        raise UsageError(f"{path}: missing covariate columns {missing}")
    cols = [header.index(n) for n in names]
    return data[:, cols]


def _scenario_from_args(args) -> Scenario:
    n_obs = args.n
    if n_obs < 4:
        raise UsageError("--n must be at least 4")
    try:
        return Scenario(
            tag=args.scenario,
            n_train=n_obs // 2,
            n_cal=n_obs - n_obs // 2,
            n_test=args.n_test,
            alpha=args.alpha,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _scale_on(mode: str, scenario_tag: str | None) -> bool:
    if mode == "on":
        return True
    if mode == "off":
        return False
    return scenario_tag == "bowtie"


def _threads_default() -> int:
    env = os.environ.get("CONFORMAL_HPD_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    scn = _scenario_from_args(args)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    for m in methods:
        if m not in METHOD_TAGS:
            raise UsageError(
                f"unknown method {m!r}; valid tags: {', '.join(METHOD_TAGS)}"
            )
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    scale_on = _scale_on(args.scale_model, scn.tag)
    reports = run_replications(
        scn, methods, args.reps, threads=args.threads, scale_model=scale_on
    )
    summaries = summarize(reports)
    os.makedirs(args.outdir, exist_ok=True)
    if args.format in ("csv", "both"):
        _write_csv(
            os.path.join(args.outdir, "report.csv"),
            [
                "method",
                "coverage",
                "coverage_se",
                "mean_size",
                "size_se",
                "mean_runtime_s",
                "failures",
            ],
            [
                (
                    s.method,
                    s.coverage,
                    s.coverage_se,
                    s.mean_size,
                    s.size_se,
                    s.mean_runtime_s,
                    s.failures,
                )
                for s in summaries
            ],
        )
    if args.format in ("json", "both"):
        payload = {
            "scenario": asdict(scn),
            "reps": args.reps,
            "scale_model": scale_on,
            "methods": [asdict(s) for s in summaries],
            "replications": [
                {
                    "method": r.method,
                    "rep": r.rep,
                    "seed": r.seed,
                    "coverage": r.coverage,
                    "mean_size": r.mean_size,
                    "wall_time_s": r.wall_time,
                    "n_intervals": r.n_intervals,
                    "warnings": r.warnings,
                    "error": r.error,
                }
                for r in reports
            ],
        }
        with open(
            os.path.join(args.outdir, "report.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(_json_safe(payload), fh, indent=2)
            fh.write("\n")
    return 0


def _sequential_plan(n: int, fractions, shuffle_seed=None) -> SplitPlan:
    order = np.arange(n)
    if shuffle_seed is not None:
        key = np.array([shuffle_seed & 0xFFFFFFFFFFFFFFFF, 1], dtype=np.uint64)
        order = np.random.Generator(np.random.Philox(key=key)).permutation(n)
    n1, n2 = (int(round(f * n)) for f in fractions[:2])
    return SplitPlan.sequential(order, n1, n2)


def cmd_predict(args) -> int:
    if args.method not in METHOD_TAGS or args.method == "oracle":
        usable = [m for m in METHOD_TAGS if m != "oracle"]
        raise UsageError(
            f"unknown method {args.method!r}; valid tags: {', '.join(usable)}"
        )
    names, train = _dataset_from_csv(args.train, args.target)
    x_test = _covariates_from_csv(args.test, names)
    scale_on = _scale_on(args.scale_model, None)
    fractions = (0.25, 0.25, 0.5) if scale_on else (0.5, 0.0, 0.5)
    if args.split:
        try:
            parts = [float(p) for p in args.split.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3 or not all(p >= 0 for p in parts) or not abs(sum(parts) - 1) <= 1e-9:
            raise UsageError("--split must be three non-negative fractions summing to 1")
        fractions = tuple(parts)
    plan = _sequential_plan(
        train.n, fractions, shuffle_seed=args.seed if args.shuffle else None
    )
    model = fit_method(args.method, train, plan, args.alpha, scale_on)
    regions = model.predict_regions(x_test)
    os.makedirs(args.outdir, exist_ok=True)
    rows = []
    for i, region in enumerate(regions):
        for j, (lo, hi) in enumerate(region.intervals):
            rows.append((i, j, lo, hi))
    _write_csv(
        os.path.join(args.outdir, "predictions.csv"),
        ["row", "interval_index", "lo", "hi"],
        rows,
    )
    return 0


def _read_predictions(path):
    header, data = _read_numeric_csv(path)
    expected = ["row", "interval_index", "lo", "hi"]
    if header != expected:
        raise UsageError(f"{path}: expected header {expected}, found {header}")
    if data.shape[0] == 0:
        raise UsageError(f"{path}: no prediction rows")
    intervals: dict = {}
    for row_id, _, lo, hi in data:
        intervals.setdefault(int(row_id), []).append((lo, hi))
    return intervals


def cmd_evaluate(args) -> int:
    intervals = _read_predictions(args.predictions)
    header, rows = _read_table(args.truth)
    if args.target not in header:
        raise UsageError(f"{args.truth}: target column {args.target!r} not found")
    t = header.index(args.target)
    y = np.array(
        [
            _parse_cell(args.truth, header, i, t, row[t])
            for i, row in enumerate(rows, start=1)
        ]
    )
    if set(intervals) != set(range(len(y))):
        raise UsageError(
            f"row keys mismatch: predictions cover {len(intervals)} rows,"
            f" truth has {len(y)}"
        )
    groups = None
    if args.group_by:
        if args.group_by not in header:
            raise UsageError(f"{args.truth}: group column {args.group_by!r} not found")
        g = header.index(args.group_by)
        groups = [row[g].strip() for row in rows]
    covered = np.array(
        [any(lo <= yi <= hi for lo, hi in intervals[i]) for i, yi in enumerate(y)]
    )
    sizes = np.array(
        [sum(hi - lo for lo, hi in intervals[i]) for i in range(len(y))]
    )
    out_rows = [
        ("coverage", "ALL", float(covered.mean())),
        ("mean_size", "ALL", float(sizes.mean())),
        ("median_size", "ALL", float(np.median(sizes))),
    ]
    if groups is not None:
        for label in sorted(set(groups)):
            sel = np.array([g == label for g in groups])
            out_rows.append((f"coverage", label, float(covered[sel].mean())))
    os.makedirs(args.outdir, exist_ok=True)
    _write_csv(
        os.path.join(args.outdir, "metrics.csv"),
        ["metric", "group", "value"],
        out_rows,
    )
    return 0


def cmd_regions(args) -> int:
    scn = _scenario_from_args(args)
    if args.method not in METHOD_TAGS:
        raise UsageError(
            f"unknown method {args.method!r}; valid tags: {', '.join(METHOD_TAGS)}"
        )
    grid = np.linspace(-5.0, 5.0, args.grid_points)
    if args.method == "oracle":
        regions = [oracle_hpd(scn, x) for x in grid]
    else:
        observed, _, _ = generate(scn)
        scale_on = _scale_on(args.scale_model, scn.tag)
        plan = _sequential_plan(
            observed.n,
            (0.25, 0.25, 0.5) if scale_on else (0.5, 0.0, 0.5),
        )
        model = fit_method(args.method, observed, plan, scn.alpha, scale_on)
        regions = model.predict_regions(grid.reshape(-1, 1))
    rows = []
    for x, region in zip(grid, regions):
        for j, (lo, hi) in enumerate(region.intervals):
            rows.append((float(x), j, lo, hi))
    os.makedirs(args.outdir, exist_ok=True)
    _write_csv(
        os.path.join(args.outdir, "regions.csv"),
        ["x", "interval_index", "lo", "hi"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conformal-hpd",
        description="Highest-predictive-density conformal prediction regions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim_p = sub.add_parser("simulate", help="run a benchmark scenario")
    sim_p.add_argument("--scenario", required=True)
    sim_p.add_argument("--methods", default="kde-hpd,secpr,cqr,dcp")
    sim_p.add_argument("--reps", type=int, default=200)
    sim_p.add_argument("--alpha", type=float, default=0.1)
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--n", type=int, default=1000, help="observed points per rep")
    sim_p.add_argument("--n-test", type=int, default=50)
    sim_p.add_argument("--threads", type=int, default=_threads_default())
    sim_p.add_argument("--scale-model", choices=["auto", "on", "off"], default="auto")
    sim_p.add_argument("--format", choices=["csv", "json", "both"], default="both")
    sim_p.add_argument("--outdir", default=".")
    sim_p.set_defaults(func=cmd_simulate)

    pred_p = sub.add_parser("predict", help="fit on a train CSV, predict a test CSV")
    pred_p.add_argument("--train", required=True)
    pred_p.add_argument("--test", required=True)
    pred_p.add_argument("--target", required=True)
    pred_p.add_argument("--method", default="kde-hpd")
    pred_p.add_argument("--alpha", type=float, default=0.1)
    pred_p.add_argument("--seed", type=int, default=0)
    pred_p.add_argument(
        "--shuffle",
        action="store_true",
        help="permute rows (seeded) before splitting folds",
    )
    pred_p.add_argument("--split", default="", help="train1,train2,cal fractions summing to 1")
    pred_p.add_argument("--scale-model", choices=["on", "off"], default="off")
    pred_p.add_argument("--outdir", default=".")
    pred_p.set_defaults(func=cmd_predict)

    ev_p = sub.add_parser("evaluate", help="score predictions against truth")
    ev_p.add_argument("--predictions", required=True)
    ev_p.add_argument("--truth", required=True)
    ev_p.add_argument("--target", required=True)
    ev_p.add_argument("--group-by", default="")
    ev_p.add_argument("--outdir", default=".")
    ev_p.set_defaults(func=cmd_evaluate)

    reg_p = sub.add_parser("regions", help="export plot-ready region traces")
    reg_p.add_argument("--scenario", required=True)
    reg_p.add_argument("--method", default="kde-hpd")
    reg_p.add_argument("--alpha", type=float, default=0.1)
    reg_p.add_argument("--seed", type=int, default=0)
    reg_p.add_argument("--n", type=int, default=1000)
    reg_p.add_argument("--n-test", type=int, default=50)
    reg_p.add_argument("--grid-points", type=int, default=200)
    reg_p.add_argument("--scale-model", choices=["auto", "on", "off"], default="auto")
    reg_p.add_argument("--outdir", default=".")
    reg_p.set_defaults(func=cmd_regions)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
