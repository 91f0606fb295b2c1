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
from array import array
from dataclasses import asdict, fields
from itertools import chain

import numpy as np

from conformal_hpd.core import ConfigError, Dataset, SplitPlan, check_alpha, score_intervals
from conformal_hpd.sim import (
    FIT_TAGS,
    RepReport,
    Scenario,
    check_methods,
    fit_draw,
    fit_method,
    generate,
    run_replications,
    summarize,
    use_scale,
)

__all__ = ["main"]


# Rows per write in _write_csv and characters per read when _read_table
# counts lines: the text held at once stays a few hundred KB at any size.
CSV_CHUNK_ROWS = 4096
_READ_CHUNK = 1 << 16
# names that np.loadtxt would decompress rather than read as text
_ARCHIVE_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _json_safe(node):
    if isinstance(node, float) and not math.isfinite(node):
        return repr(node)  # inf, -inf or nan
    if isinstance(node, dict):
        return {k: _json_safe(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_json_safe(v) for v in node]
    return node


def _write_csv(path, header, columns):
    """Write ``header`` and its number arrays ``columns``, ``CSV_CHUNK_ROWS`` rows per write.

    Cells are ``repr`` of the arrays' ``tolist()`` (``inf``, ``-inf``, ``nan``), as csv.writer
    spells them.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            cells = [map(repr, col[start : start + CSV_CHUNK_ROWS].tolist()) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _parse_cell(path, header, row_idx, col_idx, cell):
    text = cell.strip()
    if text == "":
        raise ConfigError(
            f"{path}: missing value at row {row_idx}, column {header[col_idx]!r}"
        )
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"{path}: non-numeric value {cell!r} at row {row_idx},"
            f" column {header[col_idx]!r}"
        ) from None


def _numpy_cells(fh, path, n_cols):
    """The cells after the header line through numpy's parser, or None where the csv path must decide.

    A file named like an archive, which numpy would decompress, is left to the csv path.
    Otherwise a pass over ``fh`` counts the lines and leaves a ``\\r`` or a blank line
    (numpy skips it) to the csv path, as numpy's rejections: quoted cells, ``1_000``,
    non-ASCII digits and whitespace-only lines. numpy then reads the file by its absolute
    path, in blocks (from a handle it makes one str per line); an absolute path never
    parses as a URL, which numpy would fetch.
    """
    if os.path.splitext(path)[1] in _ARCHIVE_SUFFIXES:
        return None
    try:
        rows, last = 0, "\n"
        while chunk := fh.read(_READ_CHUNK):
            if "\r" in chunk or "\n\n" in last + chunk:
                return None
            rows, last = rows + chunk.count("\n"), chunk[-1]
        rows += last != "\n"
        if not rows:
            return None
        data = np.loadtxt(os.path.abspath(path), delimiter=",", comments=None, ndmin=2,
                          skiprows=1, max_rows=rows, encoding="utf-8")
    except ValueError:  # a UnicodeDecodeError too: the csv path reports it
        return None
    return data if data.shape == (rows, n_cols) else None


def _unique_names(path, header):
    """``header``, or raise naming the first column name it repeats."""
    if len(set(header)) < len(header):
        name = next(name for j, name in enumerate(header) if name in header[:j])
        raise ConfigError(f"{path}: column {name!r} appears more than once in the header")
    return header


def _read_table(path, text=""):
    """Header, numeric cells and ``text`` labels of a CSV file; one leading BOM is dropped.

    Every column but ``text`` holds numbers: numpy parses plain numeric files
    (see ``_numpy_cells``), csv.reader and ``_parse_cell`` all others, row by
    row as the file is read. The stripped ``text`` cells are the labels (or None).
    A repeated column name is rejected: callers find columns by name.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first = fh.readline()
            head = first.removeprefix("\ufeff")
            # an unquoted, non-empty header that csv.reader splits at each comma; numpy
            # reads the file a second time, which a pipe cannot give
            plain = head.endswith("\n") and head[-2:] not in ("\r\n", "\n") and '"' not in head
            if plain and fh.seekable() and not text:
                header = _unique_names(path, head[:-1].split(","))
                data = _numpy_cells(fh, path, len(header))
                if data is not None:
                    return header, data, None
                fh.seek(0)
                fh.readline()
            reader = csv.reader(chain([head], fh) if first else ())
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}: empty file, header row required")
            _unique_names(path, header)
            if text and text not in header:
                raise ConfigError(f"{path}: column {text!r} not found")
            g = header.index(text) if text else -1
            cells, labels, i = array("d"), [], 0
            for i, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise ConfigError(
                        f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
                    )
                for j, cell in enumerate(row):
                    cells.append(math.nan if j == g else _parse_cell(path, header, i, j, cell))
                if text:
                    labels.append(row[g].strip())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    data = np.frombuffer(cells, dtype=np.float64).reshape(i, len(header))
    return header, data, (labels if text else None)


def _reject_where(path, header, bad, what):
    """Raise naming the first flagged cell of ``bad`` (rows x columns of ``header``)."""
    rows, cols = np.nonzero(bad)
    if rows.size:
        raise ConfigError(f"{path}: {what} value at row {rows[0] + 1}, column {header[cols[0]]!r}")


def _require_finite(path, header, data, cols):
    """Raise naming the first NaN or infinite cell of columns ``cols``, column ``cols[0]`` first."""
    for part in (cols[:1], cols):
        _reject_where(path, [header[j] for j in part], ~np.isfinite(data[:, part]), "non-finite")


def _dataset_from_csv(path, target):
    header, data, _ = _read_table(path)
    if target not in header:
        raise ConfigError(f"{path}: target column {target!r} not found")
    t = header.index(target)
    covariates = [j for j in range(len(header)) if j != t]
    if not covariates:
        raise ConfigError(f"{path}: no covariate columns besides the target")
    _require_finite(path, header, data, [t, *covariates])
    names = [header[j] for j in covariates]
    return names, Dataset(data[:, covariates], data[:, t])


def _covariates_from_csv(path, names):
    header, data, _ = _read_table(path)
    missing = [n for n in names if n not in header]
    if missing:
        raise ConfigError(f"{path}: missing covariate columns {missing}")
    cols = [header.index(n) for n in names]
    _require_finite(path, header, data, cols)
    return data[:, cols]


# --scale-model choices as run_replications's scale_model (None: auto)
_SCALE_MODES = {"auto": None, "on": True, "off": False}


def _scenario_from_args(args, n_test: int) -> tuple:
    """The scenario and the scale switch given by the flags simulate and regions share."""
    n_obs = args.n
    if n_obs < 4:
        raise ConfigError("--n must be at least 4")
    scn = Scenario(
        tag=args.scenario,
        n_train=n_obs // 2,
        n_cal=n_obs - n_obs // 2,
        n_test=n_test,
        alpha=args.alpha,
        seed=args.seed,
    )
    return scn, use_scale(_SCALE_MODES[args.scale_model], scn.tag)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    scn, scale_on = _scenario_from_args(args, args.n_test)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    reports = run_replications(scn, methods, args.reps, args.threads, scale_model=scale_on)
    summaries = summarize(reports)
    os.makedirs(args.outdir, exist_ok=True)
    if args.format in ("csv", "both"):
        header = ["method", "coverage", "coverage_se", "mean_size", "size_se",
                  "mean_runtime_s", "failures"]
        with open(os.path.join(args.outdir, "report.csv"), "w", newline="", encoding="utf-8") as fh:
            rows = ([getattr(s, f) for f in header] for s in summaries)
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    if args.format in ("json", "both"):
        # one row per report: every field but the per-test-point tuples, wall time in seconds
        per_point = ("sizes", "covered", "x_test")
        keys = {f.name: f.name for f in fields(RepReport) if f.name not in per_point}
        keys["wall_time"] = "wall_time_s"
        payload = {
            "scenario": asdict(scn),
            "reps": args.reps,
            "scale_model": scale_on,
            "methods": [asdict(s) for s in summaries],
            "replications": [{k: getattr(r, f) for f, k in keys.items()} for r in reports],
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
    check_methods([args.method], FIT_TAGS)
    check_alpha(args.alpha)
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
            raise ConfigError("--split must be three non-negative fractions summing to 1")
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
    header, data, _ = _read_table(path)
    expected = ["row", "interval_index", "lo", "hi"]
    if header != expected:
        raise ConfigError(f"{path}: expected header {expected}, found {header}")
    if data.shape[0] == 0:
        raise ConfigError(f"{path}: no prediction rows")
    # +-inf endpoints are valid (clamped order statistics); NaN is only valid in
    # both lo and hi, the entry of a row with no interval
    nan = np.isnan(data)
    nan[:, 2:] &= ~nan[:, 2:].all(axis=1, keepdims=True)
    _reject_where(path, header, nan, "NaN")
    row_id, _, lo, hi = data.T
    not_id = ~np.isfinite(row_id) | (row_id < 0) | (np.floor(row_id) != row_id)
    _reject_where(path, header, not_id[:, None], "non-integer or negative")
    inverted = np.flatnonzero(lo > hi)
    if inverted.size:
        raise ConfigError(f"{path}: interval with lo > hi at row {inverted[0] + 1}")
    return row_id, lo, hi


def cmd_evaluate(args) -> int:
    row_id, lo, hi = _read_predictions(args.predictions)
    if args.group_by and args.group_by == args.target:
        raise ConfigError("--group-by must name a column other than --target")
    header, data, groups = _read_table(args.truth, args.group_by)
    if args.target not in header:
        raise ConfigError(f"{args.truth}: target column {args.target!r} not found")
    t = header.index(args.target)
    # every column but the group labels is numeric; the target is checked first
    numeric = [t] + [j for j, name in enumerate(header) if j != t and name != args.group_by]
    _require_finite(args.truth, header, data, numeric)
    y = data[:, t]
    keys = np.unique(row_id)
    if keys.size != y.size or (keys != np.arange(y.size)).any():
        raise ConfigError(
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
        # as objects, labels compare as Python str: no fixed-width copy, no trailing NUL dropped
        labels, idx = np.unique(np.array(groups, dtype=object), return_inverse=True)
        hits = np.bincount(idx[covered], minlength=len(labels))
        counts = np.bincount(idx, minlength=len(labels))
        for label, h, n in zip(labels.tolist(), hits.tolist(), counts.tolist()):
            out_rows.append(("coverage", label, h / n))
    os.makedirs(args.outdir, exist_ok=True)
    with open(os.path.join(args.outdir, "metrics.csv"), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([("metric", "group", "value"), *out_rows])
    return 0


def cmd_regions(args) -> int:
    scn, scale_on = _scenario_from_args(args, n_test=1)  # the test fold is never read
    check_methods([args.method])
    if args.grid_points < 1:
        raise ConfigError(f"--grid-points must be >= 1, got {args.grid_points}")
    grid = np.linspace(-5.0, 5.0, args.grid_points)
    model = fit_draw(scn, args.method, generate(scn), scale_on)
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

    # the flags of a scenario's replication, shared by simulate and regions
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", required=True)
    scenario.add_argument("--alpha", type=float, default=0.1)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--n", type=int, default=1000, help="observed points per replication")
    scenario.add_argument("--scale-model", choices=list(_SCALE_MODES), default="auto")
    scenario.add_argument("--outdir", default=".")

    sim_p = sub.add_parser("simulate", parents=[scenario], help="run a benchmark scenario")
    sim_p.add_argument("--methods", default="kde-hpd,secpr,cqr,dcp")
    sim_p.add_argument("--reps", type=int, default=200)
    sim_p.add_argument("--n-test", type=int, default=50)
    sim_p.add_argument("--threads", type=int, default=1)
    sim_p.add_argument("--format", choices=["csv", "json", "both"], default="both")
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

    reg_p = sub.add_parser("regions", parents=[scenario], help="export plot-ready region traces")
    reg_p.add_argument("--method", default="kde-hpd")
    reg_p.add_argument("--grid-points", type=int, default=200)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
