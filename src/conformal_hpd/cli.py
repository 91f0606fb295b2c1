"""Command-line front end: simulate, predict, evaluate, regions.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
All CSV output uses ``\\n`` line endings, no BOM, and shortest round-trip
float formatting with infinities spelled ``inf`` / ``-inf``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from conformal_hpd.core import Dataset, SplitPlan, score_intervals
from conformal_hpd.sim import (
    METHOD_TAGS,
    Scenario,
    build_plan,
    fit_method,
    generate,
    run_replications,
    summarize,
    use_scale,
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


def _csv_cell(text: str) -> str:
    """One text cell, quoted as csv.writer quotes it (minimal quoting)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _write_csv(path, header, columns):
    """Write ``header`` and ``columns`` (one per header name) in one write.

    Array cells go through ``tolist()`` and ``repr``, which spells Python
    ints and floats as ``_fmt`` does; text cells are quoted as csv.writer does.
    """
    cells = []
    for col in columns:
        if isinstance(col, np.ndarray):
            cells.append(map(repr, col.tolist()))
        else:
            cells.append([_csv_cell(v) if isinstance(v, str) else _fmt(v) for v in col])
    lines = [",".join(map(_csv_cell, header)), *map(",".join, zip(*cells))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path):
    """The header row of a CSV file and its remaining physical lines."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise UsageError(f"{path}: empty file, header row required")
    return header, lines[reader.line_num :]


def _csv_rows(path, header, body):
    rows = list(csv.reader(body))
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise UsageError(
                f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
            )
    return rows


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


def _loadtxt(body, n_cols):
    """Every cell through numpy's parser, or None where the csv path must decide.

    numpy rejects quoted cells, ``1_000`` and non-ASCII digits, which the
    csv path accepts, and skips the blank lines that the csv path rejects.
    """
    if not body or not {"\n", "\r\n", "\r"}.isdisjoint(body):
        return None
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (len(body), n_cols) else None


def _read_numeric_csv(path):
    header, body = _read_lines(path)
    data = _loadtxt(body, len(header))
    if data is None:
        rows = _csv_rows(path, header, body)
        data = np.empty((len(rows), len(header)))
        for i, row in enumerate(rows, start=1):
            for j, cell in enumerate(row):
                data[i - 1, j] = _parse_cell(path, header, i, j, cell)
    return header, data


def _reject_where(path, header, bad, what):
    """Raise naming the first flagged cell of ``bad`` (rows x columns of ``header``)."""
    rows, cols = np.nonzero(bad)
    if rows.size:
        raise UsageError(f"{path}: {what} value at row {rows[0] + 1}, column {header[cols[0]]!r}")


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


def _scenario_from_args(args, n_test: int) -> Scenario:
    n_obs = args.n
    if n_obs < 4:
        raise UsageError("--n must be at least 4")
    try:
        return Scenario(
            tag=args.scenario,
            n_train=n_obs // 2,
            n_cal=n_obs - n_obs // 2,
            n_test=n_test,
            alpha=args.alpha,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_methods(tags, valid):
    unknown = [t for t in tags if t not in valid]
    if unknown:
        raise UsageError(f"unknown method {unknown[0]!r}; valid tags: {', '.join(valid)}")


# --scale-model choices as run_replications's scale_model (None: auto)
_SCALE_MODES = {"auto": None, "on": True, "off": False}


def _thread_count(flag) -> int:
    """``--threads`` if given, else ``CONFORMAL_HPD_THREADS``, else 1."""
    env = os.environ.get("CONFORMAL_HPD_THREADS") or "1"
    source, text = ("--threads", flag) if flag is not None else ("CONFORMAL_HPD_THREADS", env)
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"{source} must be an integer >= 1, got {text!r}")
    return threads


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    scn = _scenario_from_args(args, args.n_test)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    _check_methods(methods, METHOD_TAGS)
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    threads = _thread_count(args.threads)
    scale_on = use_scale(_SCALE_MODES[args.scale_model], scn.tag)
    reports = run_replications(scn, methods, args.reps, threads=threads, scale_model=scale_on)
    summaries = summarize(reports)
    os.makedirs(args.outdir, exist_ok=True)
    if args.format in ("csv", "both"):
        fields = ["method", "coverage", "coverage_se", "mean_size", "size_se",
                  "mean_runtime_s", "failures"]
        columns = [[getattr(s, f) for s in summaries] for f in fields]
        _write_csv(os.path.join(args.outdir, "report.csv"), fields, columns)
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
    _check_methods([args.method], [m for m in METHOD_TAGS if m != "oracle"])
    if not 0.0 < args.alpha < 1.0:  # the message Scenario gives simulate and regions
        raise UsageError("alpha must lie in (0, 1)")
    names, train = _dataset_from_csv(args.train, args.target)
    x_test = _covariates_from_csv(args.test, names)
    scale_on = _SCALE_MODES[args.scale_model]
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
    rows, index, lo, hi = model.predict_regions(x_test).flat()
    os.makedirs(args.outdir, exist_ok=True)
    _write_csv(
        os.path.join(args.outdir, "predictions.csv"),
        ["row", "interval_index", "lo", "hi"],
        [rows, index, lo, hi],
    )
    return 0


def _read_predictions(path):
    """Row ids, lo and hi of every interval in ``path``, in file order."""
    header, data = _read_numeric_csv(path)
    expected = ["row", "interval_index", "lo", "hi"]
    if header != expected:
        raise UsageError(f"{path}: expected header {expected}, found {header}")
    if data.shape[0] == 0:
        raise UsageError(f"{path}: no prediction rows")
    # +-inf endpoints are valid (clamped order statistics); NaN never is
    _reject_where(path, header, np.isnan(data), "NaN")
    row_id, _, lo, hi = data.T
    not_id = ~np.isfinite(row_id) | (row_id < 0) | (np.floor(row_id) != row_id)
    _reject_where(path, header, not_id[:, None], "non-integer or negative")
    inverted = np.flatnonzero(lo > hi)
    if inverted.size:
        raise UsageError(f"{path}: interval with lo > hi at row {inverted[0] + 1}")
    return row_id, lo, hi


def cmd_evaluate(args) -> int:
    row_id, lo, hi = _read_predictions(args.predictions)
    header, body = _read_lines(args.truth)
    if args.target not in header:
        raise UsageError(f"{args.truth}: target column {args.target!r} not found")
    if args.group_by and args.group_by not in header:
        raise UsageError(f"{args.truth}: group column {args.group_by!r} not found")
    # numeric files skip the csv rows unless group labels are asked for
    data = _loadtxt(body, len(header))
    if data is None or args.group_by:
        rows = _csv_rows(args.truth, header, body)
    t = header.index(args.target)
    # every column but the group labels is numeric; the target is checked first
    numeric = [t] + [j for j, name in enumerate(header) if j != t and name != args.group_by]
    if data is None:
        data = np.zeros((len(rows), len(header)))
        for j in numeric:
            data[:, j] = [
                _parse_cell(args.truth, header, i, j, row[j]) for i, row in enumerate(rows, start=1)
            ]
    for cols in ([t], numeric):
        bad = ~np.isfinite(data[:, cols])
        _reject_where(args.truth, [header[j] for j in cols], bad, "non-finite")
    y = data[:, t]
    keys = np.unique(row_id)
    if keys.size != y.size or (keys != np.arange(y.size)).any():
        raise UsageError(
            f"row keys mismatch: predictions cover {keys.size} rows,"
            f" truth has {len(y)}"
        )
    # raw lengths summed per row in file order, without coalescing
    covered, sizes = score_intervals(row_id, lo, hi, y)
    out_rows = [
        ("coverage", "ALL", float(covered.mean())),
        ("mean_size", "ALL", float(sizes.mean())),
        ("median_size", "ALL", float(np.median(sizes))),
    ]
    if args.group_by:
        g = header.index(args.group_by)
        groups = [row[g].strip() for row in rows]
        labels = sorted(set(groups))
        index = {label: k for k, label in enumerate(labels)}
        idx = np.array([index[label] for label in groups], dtype=np.intp)
        hits = np.bincount(idx[covered], minlength=len(labels))
        counts = np.bincount(idx, minlength=len(labels))
        for label, h, n in zip(labels, hits.tolist(), counts.tolist()):
            out_rows.append(("coverage", label, h / n))
    os.makedirs(args.outdir, exist_ok=True)
    metrics_path = os.path.join(args.outdir, "metrics.csv")
    _write_csv(metrics_path, ["metric", "group", "value"], list(zip(*out_rows)))
    return 0


def cmd_regions(args) -> int:
    scn = _scenario_from_args(args, n_test=1)  # the test fold is never read
    _check_methods([args.method], METHOD_TAGS)
    if args.grid_points < 1:
        raise UsageError(f"--grid-points must be >= 1, got {args.grid_points}")
    grid = np.linspace(-5.0, 5.0, args.grid_points)
    observed, _, oracle = generate(scn)
    scale_on = use_scale(_SCALE_MODES[args.scale_model], scn.tag)
    plan = build_plan(observed.n, scn.n_train, scale_on)
    model = oracle if args.method == "oracle" else fit_method(
        args.method, observed, plan, scn.alpha, scale_on
    )
    rows, index, lo, hi = model.predict_regions(grid.reshape(-1, 1)).flat()
    os.makedirs(args.outdir, exist_ok=True)
    _write_csv(
        os.path.join(args.outdir, "regions.csv"),
        ["x", "interval_index", "lo", "hi"],
        [grid[rows], index, lo, hi],
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
    sim_p.add_argument("--threads", type=int, help="default: CONFORMAL_HPD_THREADS, else 1")
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
