import csv
import json
import math
import os
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conformal_hpd.sim as sim
from conformal_hpd import cli
from conformal_hpd.cli import main
from conformal_hpd.core import ConfigError, score_intervals
from conformal_hpd.sim import Scenario, generate


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def untimed_reports(outdir):
    """report.csv and report.json as bytes, the wall-time fields (set by the clock) zeroed."""
    lines = [line.split(b",") for line in (outdir / "report.csv").read_bytes().split(b"\n")]
    t = lines[0].index(b"mean_runtime_s")
    table = b"\n".join(b",".join(cells[:t] + cells[t + 1 :]) for cells in lines)
    payload = (outdir / "report.json").read_bytes()
    return table, re.sub(rb'("(?:wall_time_s|mean_runtime_s)": )[^,\n]*', rb"\g<1>0", payload)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def dataset_to_rows(ds):
    return [[repr(float(v)) for v in (*row, y)] for row, y in zip(ds.x, ds.y)]


@pytest.fixture()
def sim_csvs(tmp_path):
    """Simulated bimodal data dumped to train/test CSVs at full precision."""
    scn = Scenario(tag="bimodal", seed=21)
    observed, test, _ = generate(scn)
    train_path = tmp_path / "train.csv"
    test_path = tmp_path / "test.csv"
    write_csv(train_path, ["x0", "price"], dataset_to_rows(observed))
    write_csv(test_path, ["x0", "price"], dataset_to_rows(test))
    return scn, train_path, test_path


class TestSimulate:
    def test_report_files_and_schema(self, tmp_path):
        code = run_cli(
            "simulate",
            "--scenario", "unimodal-symmetric",
            "--methods", "secpr,kde-hpd",
            "--reps", "3",
            "--n", "200",
            "--seed", "5",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        rows = read_csv(tmp_path / "report.csv")
        assert rows[0] == [
            "method", "coverage", "coverage_se", "mean_size",
            "size_se", "mean_runtime_s", "failures",
        ]
        assert [r[0] for r in rows[1:]] == ["secpr", "kde-hpd"]
        cov = float(rows[1][1])
        assert 0.5 < cov <= 1.0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["scenario"]["tag"] == "unimodal-symmetric"
        assert len(payload["replications"]) == 6

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate",
            "--scenario", "bimodal",
            "--methods", "kde-hpd",
            "--reps", "2",
            "--n", "200",
            "--seed", "7",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--outdir", str(out1)) == 0
        assert run_cli(*args, "--outdir", str(out2)) == 0
        assert untimed_reports(out1) == untimed_reports(out2)

    def test_thread_count_does_not_change_reports(self, tmp_path):
        args = [
            "simulate", "--scenario", "unimodal-symmetric", "--methods",
            "secpr,kde-hpd", "--reps", "4", "--n", "200", "--seed", "3",
        ]
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run_cli(*args, "--threads", "1", "--outdir", str(out1)) == 0
        assert run_cli(*args, "--threads", "2", "--outdir", str(out2)) == 0
        assert untimed_reports(out1) == untimed_reports(out2)

    def test_unknown_scenario_exits_2_listing_tags(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "nope", "--outdir", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "bimodal" in err and "bowtie" in err

    def test_unknown_method_exits_2(self, tmp_path):
        code = run_cli(
            "simulate", "--scenario", "bimodal", "--methods", "magic",
            "--outdir", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "methods, message",
        [("secpr,secpr", "method 'secpr' given more than once"),
         ("", "no methods given"), (" , ", "no methods given")],
    )
    def test_repeated_or_no_method_exits_2(self, tmp_path, capsys, methods, message):
        code = run_cli(
            "simulate", "--scenario", "bimodal", "--methods", methods, "--reps", "3",
            "--n", "40", "--outdir", str(tmp_path),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_newlines_and_no_bom(self, tmp_path):
        run_cli(
            "simulate", "--scenario", "bowtie", "--methods", "secpr",
            "--reps", "1", "--n", "120", "--outdir", str(tmp_path),
        )
        raw = (tmp_path / "report.csv").read_bytes()
        assert not raw.startswith(b"\xef\xbb\xbf")
        assert b"\r" not in raw

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_exits_2(self, tmp_path, capsys, threads):
        code = run_cli(
            "simulate", "--scenario", "bimodal", "--reps", "1", "--n", "40",
            "--threads", threads, "--outdir", str(tmp_path),
        )
        assert code == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--threads", "junk"), ("--reps", "0")])
    def test_bad_threads_or_reps_exit_2_without_a_report(self, tmp_path, flag, value):
        code = run_cli(
            "simulate", "--scenario", "bimodal", "--reps", "1", "--n", "40",
            flag, value, "--outdir", str(tmp_path),
        )
        assert code == 2
        assert not (tmp_path / "report.csv").exists()
        assert not (tmp_path / "report.json").exists()


class TestPredict:
    def test_bimodal_predictions_have_multi_interval_rows(self, sim_csvs, tmp_path):
        scn, train_path, test_path = sim_csvs
        out = tmp_path / "pred"
        code = run_cli(
            "predict",
            "--train", str(train_path),
            "--test", str(test_path),
            "--target", "price",
            "--method", "kde-hpd",
            "--alpha", "0.1",
            "--outdir", str(out),
        )
        assert code == 0
        rows = read_csv(out / "predictions.csv")
        assert rows[0] == ["row", "interval_index", "lo", "hi"]
        by_row = {}
        for row_id, j, lo, hi in rows[1:]:
            by_row.setdefault(int(row_id), []).append((float(lo), float(hi)))
        assert set(by_row) == set(range(scn.n_test))
        assert max(len(v) for v in by_row.values()) == 2

    def test_interval_contains_fit_at_training_point(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, 200)
        y = 5 + 2 * x + rng.standard_normal(200)
        train = tmp_path / "train.csv"
        write_csv(
            train, ["x0", "y"], [[repr(float(a)), repr(float(b))] for a, b in zip(x, y)]
        )
        test = tmp_path / "test.csv"
        write_csv(test, ["x0", "y"], [[repr(float(x[0])), repr(float(y[0]))]])
        out = tmp_path / "o"
        assert run_cli(
            "predict", "--train", str(train), "--test", str(test),
            "--target", "y", "--method", "secpr", "--outdir", str(out),
        ) == 0
        rows = read_csv(out / "predictions.csv")
        lo, hi = float(rows[1][2]), float(rows[1][3])
        assert lo <= 5 + 2 * x[0] <= hi

    def test_missing_value_rejected_with_row_number(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        write_csv(train, ["x0", "y"], [["1.0", "2.0"], ["", "3.0"], ["2.0", "4.0"]])
        test = tmp_path / "test.csv"
        write_csv(test, ["x0", "y"], [["1.0", "2.0"]])
        code = run_cli(
            "predict", "--train", str(train), "--test", str(test),
            "--target", "y", "--outdir", str(tmp_path / "o"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "x0" in err

    def test_non_numeric_cell_rejected_with_location(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        write_csv(train, ["x0", "y"], [["1.0", "2.0"], ["1.5", "oops"]])
        test = tmp_path / "test.csv"
        write_csv(test, ["x0", "y"], [["1.0", "2.0"]])
        code = run_cli(
            "predict", "--train", str(train), "--test", str(test),
            "--target", "y", "--outdir", str(tmp_path / "o"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "'y'" in err and "oops" in err

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # constant covariate column: valid config, singular fit at runtime
        train = tmp_path / "train.csv"
        write_csv(
            train, ["x0", "y"], [["1.0", str(v)] for v in np.linspace(0, 1, 30)]
        )
        code = run_cli(
            "predict", "--train", str(train), "--test", str(train),
            "--target", "y", "--method", "parametric",
            "--outdir", str(tmp_path / "o"),
        )
        assert code == 1
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, method, scale",
        [
            *((2, m, "off") for m in ("kde-hpd", "secpr", "cqr", "dcp", "parametric")),
            (2, "parametric", "on"),
            *((n, m, s) for n in (3, 5) for m, s in
              (("kde-hpd", "on"), ("cqr", "on"), ("cqr", "off"), ("dcp", "on"), ("dcp", "off"))),
            (11, "cqr", "on"),
            (11, "cqr", "off"),
        ],
    )
    def test_too_few_training_rows_exit_2(self, sim_csvs, tmp_path, capsys, rows, method, scale):
        _, train_path, test_path = sim_csvs
        train = tmp_path / "train.csv"
        train.write_text("".join(train_path.read_text().splitlines(True)[: rows + 1]))
        out = tmp_path / "o"
        code = run_cli(
            "predict", "--train", str(train), "--test", str(test_path), "--target", "price",
            "--method", method, "--scale-model", scale, "--outdir", str(out),
        )
        assert code == 2
        assert "too few rows" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_rejected(self, sim_csvs, tmp_path, capsys, alpha):
        _, train_path, test_path = sim_csvs
        out = tmp_path / "o"
        code = run_cli(
            "predict", "--train", str(train_path), "--test", str(test_path),
            "--target", "price", "--method", "secpr", "--alpha", alpha, "--outdir", str(out),
        )
        assert code == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_split_must_sum_to_one(self, sim_csvs, tmp_path, capsys):
        _, train_path, test_path = sim_csvs
        args = ("predict", "--train", str(train_path), "--test", str(test_path),
                "--target", "price")
        bad = tmp_path / "bad"
        assert run_cli(*args, "--split", "0.25,0.25,0.3", "--outdir", str(bad)) == 2
        assert "--split" in capsys.readouterr().err
        assert not (bad / "predictions.csv").exists()
        good = tmp_path / "good"
        assert run_cli(*args, "--split", "0.3,0.2,0.5", "--outdir", str(good)) == 0
        assert (good / "predictions.csv").exists()

    @pytest.mark.parametrize("method", ["kde-hpd", "secpr", "cqr", "dcp"])
    @pytest.mark.parametrize(
        "split, fold",
        [("0,0,1", "training"), ("1,0,0", "calibration"), ("0.5,0.5,0", "calibration"), ("", "training")],
        ids=["no-training", "no-calibration", "no-calibration-two-trains", "one-row-train-file"],
    )
    def test_empty_fold_exits_2_naming_it(self, sim_csvs, tmp_path, capsys, method, split, fold):
        _, train_path, test_path = sim_csvs
        if not split:  # the default split gives one row no training rows
            header, first = read_csv(train_path)[:2]
            train_path = tmp_path / "one.csv"
            write_csv(train_path, header, [first])
        out = tmp_path / "o"
        code = run_cli(
            "predict", "--train", str(train_path), "--test", str(test_path), "--target", "price",
            "--method", method, "--split", split, "--outdir", str(out),
        )
        assert code == 2
        assert f"{fold} fold is empty" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_empty_scale_fold_exits_2_and_parametric_ignores_the_split(self, sim_csvs, tmp_path, capsys):
        _, train_path, test_path = sim_csvs
        args = ("predict", "--train", str(train_path), "--test", str(test_path), "--target", "price")
        out = tmp_path / "o"
        assert run_cli(
            *args, "--scale-model", "on", "--split", "0.5,0,0.5", "--outdir", str(out)
        ) == 2
        err = capsys.readouterr().err
        assert "scale fold is empty: split of 500/0/500 rows to train1/train2/cal" in err
        assert not (out / "predictions.csv").exists()
        # parametric fits every row, whatever the split
        assert run_cli(*args, "--method", "parametric", "--split", "0,0,1", "--outdir", str(out)) == 0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "where, expected",
        [
            ("train target", "train.csv: non-finite value at row 3, column 'y'"),
            ("train covariate", "train.csv: non-finite value at row 3, column 'x0'"),
            ("test covariate", "test.csv: non-finite value at row 2, column 'x0'"),
        ],
    )
    def test_non_finite_cell_exits_2(self, tmp_path, capsys, bad, where, expected):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, 100)
        y = 5 + 2 * x + rng.standard_normal(100)
        rows = [[repr(float(a)), repr(float(b))] for a, b in zip(x, y)]
        test_rows = [["1.0", "7.0"], ["2.0", "9.0"]]
        if where == "train target":
            rows[2][1] = bad
            rows[1][0] = bad  # an earlier bad covariate: the target is named first
        elif where == "train covariate":
            rows[2][0] = bad
        else:
            test_rows[1][0] = bad
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_csv(train, ["x0", "y"], rows)
        write_csv(test, ["x0", "y"], test_rows)
        out = tmp_path / "o"
        code = run_cli(
            "predict", "--train", str(train), "--test", str(test),
            "--target", "y", "--outdir", str(out),
        )
        assert code == 2
        assert expected in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_non_utf8_test_file_exits_2(self, sim_csvs, tmp_path, capsys):
        _, train_path, _ = sim_csvs
        test = tmp_path / "latin1.csv"
        test.write_bytes(b"x0,price\n1.0,2.0\n\xe9,3.0\n")
        code = run_cli(
            "predict", "--train", str(train_path), "--test", str(test),
            "--target", "price", "--outdir", str(tmp_path / "o"),
        )
        assert code == 2
        assert "latin1.csv" in capsys.readouterr().err

    def test_train_file_with_a_bom_predicts_as_without(self, sim_csvs, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        _, train_path, test_path = sim_csvs
        bom_train = tmp_path / "bom.csv"
        bom_train.write_bytes(b"\xef\xbb\xbf" + train_path.read_bytes())
        outputs = []
        for train in (train_path, bom_train):
            out = tmp_path / train.stem
            code = run_cli(
                "predict", "--train", str(train), "--test", str(test_path),
                "--target", "price", "--outdir", str(out),
            )
            assert code == 0
            outputs.append((out / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_target_column_exits_2(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        write_csv(train, ["x0", "y"], [["1.0", "2.0"], ["2.0", "3.0"]])
        code = run_cli(
            "predict", "--train", str(train), "--test", str(train),
            "--target", "price", "--outdir", str(tmp_path / "o"),
        )
        assert code == 2
        assert "price" in capsys.readouterr().err


class TestEvaluate:
    def test_full_coverage_when_predictions_span_truth(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["0", "0", "-inf", "inf"], ["1", "0", "0.0", "10.0"]],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y"], [["3.0"], ["4.0"]])
        out = tmp_path / "m"
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(out),
        ) == 0
        rows = {(r[0], r[1]): r[2] for r in read_csv(out / "metrics.csv")[1:]}
        assert float(rows[("coverage", "ALL")]) == 1.0
        assert rows[("mean_size", "ALL")] == "inf"

    @pytest.mark.parametrize("column", ["row", "interval_index", "lo", "hi"])
    def test_nan_prediction_cell_exits_2(self, tmp_path, capsys, column):
        header = ["row", "interval_index", "lo", "hi"]
        second = ["1", "0", "0.0", "10.0"]
        second[header.index(column)] = "nan"
        preds = tmp_path / "predictions.csv"
        write_csv(preds, header, [["0", "0", "-inf", "inf"], second])
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y"], [["3.0"], ["4.0"]])
        code = run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(tmp_path / "m"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "predictions.csv" in err
        assert "row 2" in err and repr(column) in err
        assert not (tmp_path / "m" / "metrics.csv").exists()

    @pytest.mark.parametrize("row_id", ["0.7", "inf", "-1"])
    def test_row_id_must_be_a_non_negative_integer(self, tmp_path, capsys, row_id):
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["0", "0", "0.0", "10.0"], [row_id, "0", "20.0", "30.0"]],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y"], [["3.0"]])
        code = run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(tmp_path / "m"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "predictions.csv" in err and "row 2" in err and "'row'" in err
        assert not (tmp_path / "m" / "metrics.csv").exists()

    def test_nan_in_both_ends_is_an_empty_row(self, tmp_path, capsys):
        header = ["row", "interval_index", "lo", "hi"]
        preds = tmp_path / "predictions.csv"
        write_csv(preds, header, [["0", "0", "nan", "nan"], ["1", "0", "0.0", "10.0"]])
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y"], [["3.0"], ["4.0"]])
        args = ("evaluate", "--predictions", str(preds), "--truth", str(truth), "--target", "y")
        assert run_cli(*args, "--outdir", str(tmp_path / "m")) == 0
        rows = {(r[0], r[1]): r[2] for r in read_csv(tmp_path / "m" / "metrics.csv")[1:]}
        assert (rows[("coverage", "ALL")], rows[("mean_size", "ALL")]) == ("0.5", "5.0")
        # the empty row's id and interval index must still be numbers
        for column in ("row", "interval_index"):
            cells = ["0", "0", "nan", "nan"]
            cells[header.index(column)] = "nan"
            write_csv(preds, header, [cells, ["1", "0", "0.0", "10.0"]])
            assert run_cli(*args, "--outdir", str(tmp_path / column)) == 2
            assert f"row 1, column {column!r}" in capsys.readouterr().err

    def test_inverted_interval_exits_2(self, tmp_path, capsys):
        preds = tmp_path / "predictions.csv"
        write_csv(preds, ["row", "interval_index", "lo", "hi"], [["0", "0", "10.0", "0.0"]])
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y"], [["3.0"]])
        code = run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(tmp_path / "m"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "predictions.csv" in err and "lo > hi" in err and "row 1" in err

    def test_sizes_sum_raw_lengths_in_file_order(self, tmp_path):
        # overlapping intervals are not merged: size is the sum of lengths
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["1", "0", "0.0", "1.0"], ["0", "0", "0.0", "2.0"], ["0", "1", "1.0", "3.0"]],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y"], [["2.5"], ["5.0"]])
        out = tmp_path / "m"
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(out),
        ) == 0
        rows = {(r[0], r[1]): r[2] for r in read_csv(out / "metrics.csv")[1:]}
        assert rows[("coverage", "ALL")] == "0.5"
        assert rows[("mean_size", "ALL")] == "2.5"

    def test_interval_with_equal_infinite_endpoints_has_size_zero(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["0", "0", "inf", "inf"], ["1", "0", "-inf", "-inf"], ["1", "1", "0.0", "2.0"]],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y"], [["2.5"], ["1.0"]])
        out = tmp_path / "m"
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(out),
        ) == 0
        rows = {(r[0], r[1]): r[2] for r in read_csv(out / "metrics.csv")[1:]}
        assert rows[("coverage", "ALL")] == "0.5"
        assert rows[("mean_size", "ALL")] == "1.0"
        assert rows[("median_size", "ALL")] == "1.0"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_truth_target_exits_2(self, tmp_path, capsys, bad):
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["0", "0", "0.0", "10.0"], ["1", "0", "0.0", "10.0"]],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["x", "y"], [["nan", "3.0"], ["1.0", bad]])
        code = run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(tmp_path / "m"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "truth.csv" in err
        assert "row 2" in err and "'y'" in err
        assert not (tmp_path / "m" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "rows, where",
        [
            ([["nan", "3.0"], ["inf", "4.0"]], "row 1, column 'x'"),
            ([["1.0", "3.0"], ["-inf", "4.0"]], "row 2, column 'x'"),
            ([["1.0", "3.0"], ["abc", "4.0"]], "row 2, column 'x'"),
            ([["1.0", "3.0", "nan"], ["2.0", "4.0", "a"]], "row 2, column 'z'"),
        ],
    )
    def test_bad_truth_covariate_exits_2(self, tmp_path, capsys, rows, where):
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["0", "0", "0.0", "10.0"], ["1", "0", "0.0", "10.0"]],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["x", "y", "z"][: len(rows[0])], rows)
        code = run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(tmp_path / "m"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "truth.csv" in err and where in err
        assert not (tmp_path / "m" / "metrics.csv").exists()

    def test_group_labels_are_not_checked_as_numbers(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["0", "0", "0", "1"], ["1", "0", "0", "1"]],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["x", "y", "g"], [["1.0", "0.5", "nan"], ["2.0", "2.0", "inf"]])
        out = tmp_path / "m"
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--group-by", "g", "--outdir", str(out),
        ) == 0
        rows = {(r[0], r[1]): r[2] for r in read_csv(out / "metrics.csv")[1:]}
        assert rows[("coverage", "nan")] == "1.0" and rows[("coverage", "inf")] == "0.0"

    @pytest.mark.parametrize(
        "group, message", [("y", "--group-by must name a column other than --target"),
                           ("g", "truth.csv: column 'g' not found")]
    )
    def test_group_column_must_be_another_truth_column(self, tmp_path, capsys, group, message):
        preds = tmp_path / "predictions.csv"
        write_csv(preds, ["row", "interval_index", "lo", "hi"], [["0", "0", "0", "1"]])
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["x", "y"], [["1.0", "0.5"]])
        code = run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--group-by", group, "--outdir", str(tmp_path / "m"),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m" / "metrics.csv").exists()

    def test_non_utf8_truth_file_exits_2(self, tmp_path, capsys):
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["0", "0", "0.0", "10.0"], ["1", "0", "0.0", "10.0"]],
        )
        truth = tmp_path / "latin1.csv"
        truth.write_bytes(b"x,y\n1.0,2.0\n\xe9,3.0\n")
        code = run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(tmp_path / "m"),
        )
        assert code == 2
        assert "latin1.csv" in capsys.readouterr().err
        assert not (tmp_path / "m" / "metrics.csv").exists()

    def test_row_mismatch_exits_2(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        write_csv(preds, ["row", "interval_index", "lo", "hi"], [["0", "0", "0", "1"]])
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y"], [["0.5"], ["0.6"]])
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(tmp_path / "m"),
        ) == 2

    def test_empty_predictions_exit_2(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        write_csv(preds, ["row", "interval_index", "lo", "hi"], [])
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y"], [["0.5"]])
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--outdir", str(tmp_path / "m"),
        ) == 2

    def test_constant_group_matches_marginal(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["0", "0", "0", "1"], ["1", "0", "0", "1"]],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y", "g"], [["0.5", "a"], ["2.0", "a"]])
        out = tmp_path / "m"
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--group-by", "g", "--outdir", str(out),
        ) == 0
        rows = {(r[0], r[1]): r[2] for r in read_csv(out / "metrics.csv")[1:]}
        assert rows[("coverage", "a")] == rows[("coverage", "ALL")]

    def test_string_group_labels_allowed(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [["0", "0", "0", "1"], ["1", "0", "5", "6"]],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y", "ac"], [["0.5", "yes"], ["0.7", "no"]])
        out = tmp_path / "m"
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--group-by", "ac", "--outdir", str(out),
        ) == 0
        rows = {(r[0], r[1]): r[2] for r in read_csv(out / "metrics.csv")[1:]}
        assert float(rows[("coverage", "yes")]) == 1.0
        assert float(rows[("coverage", "no")]) == 0.0


    def test_many_group_labels_match_the_per_label_loop(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 3000
        y = rng.normal(size=n)
        labels = [f"g{k}" for k in rng.integers(0, 400, n)]
        labels[:3] = ["", " b ", "b"]  # an empty label, and one that strips to another
        # a trailing NUL keeps a label apart, and non-ASCII labels sort as Python str
        labels[3:6] = ["b\x00", "\u00e9", "Z"]
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [[str(i), "0", "-1.0", "1.0"] for i in range(n)],
        )
        truth = tmp_path / "truth.csv"
        write_csv(truth, ["y", "g"], [[repr(float(v)), g] for v, g in zip(y, labels)])
        out = tmp_path / "m"
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--group-by", "g", "--outdir", str(out),
        ) == 0
        # the per-label mask loop the grouped coverage replaced
        covered = (y >= -1.0) & (y <= 1.0)
        groups = [g.strip() for g in labels]
        expected = [
            ("coverage", label, repr(float(covered[np.array([g == label for g in groups])].mean())))
            for label in sorted(set(groups))
        ]
        rows = [tuple(r) for r in read_csv(out / "metrics.csv")[1:] if r[1] != "ALL"]
        assert rows == expected

    def test_group_labels_that_need_quoting_read_back(self, tmp_path):
        labels = ["a,b", 'say "hi"', "two\nlines", "#first", "", " pad "]
        preds = tmp_path / "predictions.csv"
        write_csv(
            preds,
            ["row", "interval_index", "lo", "hi"],
            [[str(i), "0", "0.0", "1.0"] for i in range(len(labels))],
        )
        truth = tmp_path / "truth.csv"
        y = [0.5, 2.0, 0.5, 0.5, 2.0, 0.5]
        write_csv(truth, ["y", "g"], [[repr(v), g] for v, g in zip(y, labels)])
        out = tmp_path / "m"
        assert run_cli(
            "evaluate", "--predictions", str(preds), "--truth", str(truth),
            "--target", "y", "--group-by", "g", "--outdir", str(out),
        ) == 0
        per_label = sorted((g.strip(), repr(float(v <= 1.0))) for v, g in zip(y, labels))
        assert read_csv(out / "metrics.csv") == [
            ["metric", "group", "value"],
            ["coverage", "ALL", repr(4 / 6)],
            ["mean_size", "ALL", "1.0"],
            ["median_size", "ALL", "1.0"],
            *(["coverage", g, v] for g, v in per_label),
        ]


class TestRoundTrip:
    def test_predict_evaluate_reproduces_simulate_coverage(self, sim_csvs, tmp_path):
        scn, train_path, test_path = sim_csvs
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--scenario", "bimodal", "--methods", "kde-hpd",
            "--reps", "1", "--seed", str(scn.seed), "--outdir", str(sim_out),
        ) == 0
        sim_cov = float(read_csv(sim_out / "report.csv")[1][1])

        pred_out = tmp_path / "pred"
        assert run_cli(
            "predict", "--train", str(train_path), "--test", str(test_path),
            "--target", "price", "--method", "kde-hpd", "--outdir", str(pred_out),
        ) == 0
        ev_out = tmp_path / "ev"
        assert run_cli(
            "evaluate", "--predictions", str(pred_out / "predictions.csv"),
            "--truth", str(test_path), "--target", "price", "--outdir", str(ev_out),
        ) == 0
        rows = {(r[0], r[1]): r[2] for r in read_csv(ev_out / "metrics.csv")[1:]}
        assert float(rows[("coverage", "ALL")]) == sim_cov

    # a plain header takes numpy's parser and a quoted one the csv path
    @pytest.mark.parametrize("quote", ["", '"'])
    @pytest.mark.parametrize("which", ["train", "test", "truth"])
    def test_a_repeated_column_name_exits_2(self, tmp_path, capsys, which, quote):
        # header.index would map both train columns x to the test file's first x
        rng = np.random.default_rng(8)
        paths = {}
        for name, header in (("train", "x,z,y"), ("test", "x,z"), ("truth", "x,z,y")):
            if name == which:
                header = header.replace("z", "x")
            paths[name] = tmp_path / f"{name}.csv"
            rows = rng.normal(size=(40, header.count(",") + 1)).tolist()
            lines = [quote + header.replace(",", quote + ",", 1)]
            lines += [",".join(map(repr, r)) for r in rows]
            paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
        preds = tmp_path / "predictions.csv"
        rows = [[str(i), "0", "-1", "1"] for i in range(40)]
        write_csv(preds, ["row", "interval_index", "lo", "hi"], rows)
        if which == "truth":
            code = run_cli(
                "evaluate", "--predictions", str(preds), "--truth", str(paths["truth"]),
                "--target", "y", "--outdir", str(tmp_path / "out"),
            )
        else:
            code = run_cli(
                "predict", "--train", str(paths["train"]), "--test", str(paths["test"]),
                "--target", "y", "--method", "secpr", "--outdir", str(tmp_path / "out"),
            )
        assert code == 2
        assert f"{which}.csv: column 'x' appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def predict_then_evaluate(monkeypatch, tmp_path, train, test, target, *flags):
        """Run predict, then evaluate: the fitted model's own scores, evaluate's metrics, the prediction lines."""
        models = []

        def fit(*args):
            models.append(sim.fit_method(*args))
            return models[-1]

        monkeypatch.setattr(cli, "fit_method", fit)
        out = tmp_path / "out"
        assert run_cli(
            "predict", "--train", str(train), "--test", str(test), "--target", target,
            *flags, "--outdir", str(out),
        ) == 0
        assert run_cli(
            "evaluate", "--predictions", str(out / "predictions.csv"), "--truth", str(test),
            "--target", target, "--outdir", str(out),
        ) == 0
        header, *cells = read_csv(test)
        data = np.array(cells, dtype=float)
        x, y = data[:, [header.index(h) for h in header if h != target]], data[:, header.index(target)]
        rows, _, lo, hi = models[0].predict_regions(x).flat()
        metrics = {(r[0], r[1]): float(r[2]) for r in read_csv(out / "metrics.csv")[1:]}
        return score_intervals(rows, lo, hi, y), metrics, read_csv(out / "predictions.csv")[1:]

    @pytest.mark.parametrize("scale", ["on", "off"])
    @pytest.mark.parametrize("method", sim.FIT_TAGS)
    def test_evaluate_scores_what_predict_wrote(self, sim_csvs, tmp_path, monkeypatch, method, scale):
        _, train_path, test_path = sim_csvs
        (covered, sizes), metrics, _ = self.predict_then_evaluate(
            monkeypatch, tmp_path, train_path, test_path, "price",
            "--method", method, "--scale-model", scale,
        )
        assert metrics[("coverage", "ALL")] == covered.mean()
        assert metrics[("mean_size", "ALL")] == sizes.mean()

    def test_cqr_rows_with_an_empty_region_are_written_and_scored(self, tmp_path, monkeypatch):
        # a sd growing as x^2 makes CQR's cutoff negative: its band shrinks past empty at some rows
        rng = np.random.default_rng(11)
        n = rng.integers(30, 400)
        x = rng.uniform(-5, 5, n)
        y = 5 + 2 * x + rng.normal(0, np.abs(x) ** 2 + 1e-3)
        write_csv(tmp_path / "train.csv", ["x", "y"], zip(map(repr, x.tolist()), map(repr, y.tolist())))
        xt = np.linspace(-5, 5, 400)
        yt = 5 + 2 * xt
        write_csv(tmp_path / "test.csv", ["x", "y"], zip(map(repr, xt.tolist()), map(repr, yt.tolist())))
        (covered, sizes), metrics, lines = self.predict_then_evaluate(
            monkeypatch, tmp_path, tmp_path / "train.csv", tmp_path / "test.csv", "y",
            "--method", "cqr", "--alpha", "0.3",
        )
        empty = [line for line in lines if line[2:] == ["nan", "nan"]]
        assert 0 < len(empty) < 400 and all(line[1] == "0" for line in empty)
        assert sorted({int(line[0]) for line in lines}) == list(range(400))
        assert metrics[("coverage", "ALL")] == covered.mean()
        assert metrics[("mean_size", "ALL")] == sizes.mean()


class TestRegions:
    def test_oracle_trace_matches_the_oracle_model(self, tmp_path):
        out = tmp_path / "r"
        assert run_cli(
            "regions", "--scenario", "bimodal", "--method", "oracle",
            "--grid-points", "9", "--outdir", str(out),
        ) == 0
        rows = read_csv(out / "regions.csv")
        assert rows[0] == ["x", "interval_index", "lo", "hi"]
        scn = Scenario(tag="bimodal")
        by_x = {}
        for x, j, lo, hi in rows[1:]:
            by_x.setdefault(float(x), []).append((float(lo), float(hi)))
        oracle = generate(scn)[2]
        for x, ivals in by_x.items():
            expected = oracle.predict_regions([[x]])[0].intervals
            assert len(ivals) == len(expected) == 2
            for got, exp in zip(ivals, expected):
                assert got == pytest.approx(exp, abs=1e-9)

    @pytest.mark.parametrize("n, scale_model", [("998", "auto"), ("999", "off")])
    def test_fits_on_the_simulate_plan(self, tmp_path, monkeypatch, n, scale_model):
        # n // 2 odd: a fraction split of n rounds differently from simulate's folds
        plans = []
        fit = sim.fit_method

        def recorder(tag, observed, plan, alpha, scale_on):
            plans.append(tuple(a.tolist() for a in (plan.idx_train1, plan.idx_train2, plan.idx_cal)))
            return fit(tag, observed, plan, alpha, scale_on)

        monkeypatch.setattr(sim, "fit_method", recorder)
        common = ["--scenario", "bowtie", "--n", n, "--scale-model", scale_model]
        assert run_cli(
            "regions", *common, "--method", "secpr", "--grid-points", "3",
            "--outdir", str(tmp_path / "r"),
        ) == 0
        assert run_cli(
            "simulate", *common, "--methods", "secpr", "--reps", "1", "--n-test", "1",
            "--threads", "1", "--outdir", str(tmp_path / "s"),
        ) == 0
        assert len(plans) == 2 and plans[0] == plans[1]  # regions, then simulate
        folds = tuple(map(len, plans[0]))
        assert folds == ((249, 250, 499) if n == "998" else (499, 0, 500))

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_grid_points_below_one_rejected(self, tmp_path, capsys, points):
        out = tmp_path / "r"
        assert run_cli(
            "regions", "--scenario", "bimodal", "--method", "oracle",
            "--grid-points", points, "--outdir", str(out),
        ) == 2
        assert "--grid-points must be >= 1" in capsys.readouterr().err
        assert not (out / "regions.csv").exists()

    def test_bimodal_kde_hpd_emits_two_bands(self, tmp_path):
        out = tmp_path / "r"
        assert run_cli(
            "regions", "--scenario", "bimodal", "--method", "kde-hpd",
            "--seed", "4", "--grid-points", "21", "--outdir", str(out),
        ) == 0
        rows = read_csv(out / "regions.csv")[1:]
        counts = {}
        for x, j, lo, hi in rows:
            counts[x] = counts.get(x, 0) + 1
        assert set(counts.values()) == {2}

    def test_bowtie_band_width_grows_with_abs_x(self, tmp_path):
        out = tmp_path / "r"
        assert run_cli(
            "regions", "--scenario", "bowtie", "--method", "kde-hpd",
            "--seed", "4", "--grid-points", "41", "--outdir", str(out),
        ) == 0
        widths = {}
        for x, j, lo, hi in read_csv(out / "regions.csv")[1:]:
            widths[float(x)] = widths.get(float(x), 0.0) + float(hi) - float(lo)
        w_at = lambda target: min(widths.items(), key=lambda kv: abs(kv[0] - target))[1]
        assert w_at(4.0) >= 3.0 * w_at(0.5)


# (file body after the header "a,b", parsed rows or the rejection message),
# as accepted and rejected by the per-cell csv reader
READER_CASES = [
    (" 1 , 2 \n\t3,4\t\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("nan,inf\n-inf,-0.0\n", [[math.nan, math.inf], [-math.inf, -0.0]]),
    ("1_000,2\n", [[1000.0, 2.0]]),
    ('"3","4.5"\n', [[3.0, 4.5]]),
    ("\u0661,2\n", [[1.0, 2.0]]),
    ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
    ("", []),
    ("1,2\n\n3,4\n", "row 2 has 0 fields, expected 2"),
    ("1,2\n\n", "row 2 has 0 fields, expected 2"),
    ("1,2,\n", "row 1 has 3 fields, expected 2"),
    ("1,\n", "missing value at row 1, column 'b'"),
    ("1, \n", "missing value at row 1, column 'b'"),
    ('"1,5",2\n', "non-numeric value '1,5' at row 1, column 'a'"),
    ("1,0x10\n", "non-numeric value '0x10' at row 1, column 'b'"),
    ("1,2 3\n", "non-numeric value '2 3' at row 1, column 'b'"),
    ("1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("\n1,2\n", "row 1 has 0 fields, expected 2"),
    ("1,2\n \n3,4\n", "row 2 has 1 fields, expected 2"),
    ("1,2\n\t\n", "row 2 has 1 fields, expected 2"),
    ("1,2\n3,4\n\n\n", "row 3 has 0 fields, expected 2"),
]

# (whole file, header, parsed rows or the rejection message): headers the
# numpy path leaves to the csv path, and one leading BOM, which is dropped
FILE_CASES = [
    ("\ufeffa,b\n1,2\n", ["a", "b"], [[1.0, 2.0]]),
    ('\ufeff"a",b\n1,2\n', ["a", "b"], [[1.0, 2.0]]),
    ("\ufeff\ufeffa,b\n1,2\n", ["\ufeffa", "b"], [[1.0, 2.0]]),
    ('"a\nx",b\n1,2\n', ["a\nx", "b"], [[1.0, 2.0]]),
    ('"a""q",b\n1,2\n', ['a"q', "b"], [[1.0, 2.0]]),
    ("a,b\r\n1,2\n", ["a", "b"], [[1.0, 2.0]]),
    ("a,b\r1,2\r", ["a", "b"], [[1.0, 2.0]]),
    ("a,b\n", ["a", "b"], []),
    ("\ufeffa,b", ["a", "b"], []),
    ("a\n1\n\n", ["a"], "row 2 has 0 fields, expected 1"),
    (" a , b\n1,2\n", [" a ", " b"], [[1.0, 2.0]]),
    ("\n1,2\n", [], "row 1 has 2 fields, expected 0"),
    ("\ufeff\n", [], []),
    ("a,b,a\n1,2,3\n", [], "column 'a' appears more than once in the header"),
    ('"a",a\n1,2\n', [], "column 'a' appears more than once in the header"),
]


def read_both(path, monkeypatch):
    """``_read_table`` with numpy's parser allowed and on the csv path alone.

    Returns the two results (a ConfigError becomes its message) and whether
    the first one came from numpy's parser.
    """
    results, used_numpy = [], []

    def spy(*args):
        data = numpy_cells(*args)
        used_numpy.append(data is not None)
        return data

    numpy_cells = cli._numpy_cells
    for fallback in (spy, lambda *args: None):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_numpy_cells", fallback)
            try:
                results.append(cli._read_table(path))
            except ConfigError as exc:
                results.append(str(exc))
    return results, any(used_numpy)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


# numpy warns on a blank line it skips; the reader must leave those to the csv path
@pytest.mark.filterwarnings("error")
class TestNumericReader:
    @pytest.mark.parametrize("body, expected", READER_CASES)
    def test_pinned_accept_and_reject(self, tmp_path, body, expected):
        path = tmp_path / "t.csv"
        path.write_bytes(("a,b\n" + body).encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(ConfigError, match=expected):
                cli._read_table(path)
            return
        header, data, _ = cli._read_table(path)
        assert header == ["a", "b"] and data.shape == (len(expected), 2)
        np.testing.assert_array_equal(data, np.reshape(expected, (-1, 2)))
        assert np.signbit(data).tolist() == np.signbit(np.reshape(expected, (-1, 2))).tolist()

    @pytest.mark.parametrize("body, expected", READER_CASES)
    def test_both_paths_agree(self, tmp_path, monkeypatch, body, expected):
        path = tmp_path / "t.csv"
        path.write_bytes(("a,b\n" + body).encode("utf-8"))
        (fast, slow), _ = read_both(path, monkeypatch)
        if isinstance(expected, str):
            assert fast == slow and expected in fast
            return
        assert fast[0] == slow[0] == ["a", "b"] and fast[2] is slow[2] is None
        assert_same_bits(fast[1], slow[1])

    @pytest.mark.parametrize("text, header, expected", FILE_CASES)
    def test_header_cases_on_both_paths(self, tmp_path, monkeypatch, text, header, expected):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        (fast, slow), _ = read_both(path, monkeypatch)
        if isinstance(expected, str):
            assert fast == slow and expected in fast
            return
        assert fast[0] == slow[0] == header
        assert_same_bits(fast[1], slow[1])
        assert_same_bits(fast[1], np.array(expected, dtype=float).reshape(len(expected), len(header)))

    def test_labels_are_read_on_the_csv_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes("\ufeffg,y\n 1 ,2\nb,3\n".encode("utf-8"))
        header, data, labels = cli._read_table(path, "g")
        assert header == ["g", "y"] and labels == ["1", "b"]
        np.testing.assert_array_equal(data[:, 1], [2.0, 3.0])

    @given(
        values=st.lists(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, -5e-324]),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=30,
        ),
        cols=st.integers(1, 3),
        style=st.sampled_from(["repr", "%.17g"]),
        newline_at_end=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_written_floats_read_back_to_the_same_bits(
        self, tmp_path_factory, values, cols, style, newline_at_end
    ):
        table = np.array(values)[:, :cols]
        spell = repr if style == "repr" else (lambda v: "%.17g" % v)
        lines = [",".join(f"c{j}" for j in range(cols))]
        lines += [",".join(spell(float(v)) for v in row) for row in table]
        path = tmp_path_factory.mktemp("prop") / "t.csv"
        path.write_bytes(("\n".join(lines) + ("\n" if newline_at_end else "")).encode("utf-8"))
        with pytest.MonkeyPatch.context() as monkeypatch:
            (fast, slow), used_numpy = read_both(path, monkeypatch)
        assert used_numpy
        expected = np.where(np.isnan(table), np.nan, table)  # one NaN spelling: "nan"
        assert_same_bits(fast[1], slow[1])
        assert_same_bits(fast[1], expected)

    def test_reading_a_large_numeric_file_holds_no_object_per_line(self, tmp_path):
        n = 200_000
        rng = np.random.default_rng(5)
        path = tmp_path / "predictions.csv"
        cli._write_csv(
            path, ["row", "interval_index", "lo", "hi"],
            [np.arange(n), np.zeros(n, dtype=int), rng.standard_normal(n), rng.standard_normal(n)],
        )
        tracemalloc.start()
        try:
            _, data, _ = cli._read_table(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.shape == (n, 4)
        # the array is 6.4 MB; a str per line (the csv path) adds about 20 MB more
        assert peak <= data.nbytes + 2_000_000, peak

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_text_file_named_like_an_archive_is_read_as_text(self, tmp_path, suffix):
        # np.loadtxt would decompress such a name; the reader reads what is there
        path = tmp_path / f"t.csv{suffix}"
        path.write_bytes(b"a,b\n1,2\n3,4\n")
        header, data, _ = cli._read_table(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_once_on_the_csv_path(self, tmp_path):
        path = tmp_path / "fifo.csv"
        os.mkfifo(path)
        result = []
        reader = threading.Thread(target=lambda: result.append(cli._read_table(path)), daemon=True)
        reader.start()
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")  # once the reader opens the pipe
        reader.join(timeout=10)
        if reader.is_alive():  # a second open of the pipe waits for a writer: let it go
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert len(result) == 1
        header, data, _ = result[0]
        assert header == ["a", "b"]
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"")
        with pytest.raises(ConfigError, match="header row required"):
            cli._read_table(path)


def reference_fmt(value) -> str:
    """A number's cell text as the csv.writer path spelled it: ``repr`` of a float, ``str`` else."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def write_csv_reference(path, header, rows):
    """The row-by-row csv.writer path that ``cli._write_csv`` replaces."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([reference_fmt(v) for v in row])


class TestCsvWriter:
    # report.csv and metrics.csv, the tables that hold text, are written by
    # csv.writer itself; TestEvaluate reads quoted group labels back
    @pytest.mark.parametrize("extra", [-1, 0, 1, cli.CSV_CHUNK_ROWS + 3])
    def test_bytes_equal_the_csv_writer_path_across_chunks(self, tmp_path, extra):
        n = cli.CSV_CHUNK_ROWS + extra
        rng = np.random.default_rng(n)
        specials = np.array([math.inf, -math.inf, math.nan, -0.0, 1e-300])
        values = np.where(rng.random(n) < 0.2, rng.choice(specials, n), rng.standard_normal(n))
        ints = rng.integers(-10, 10, n)
        header = ["i", "value", "j", "reversed"]
        rows = list(zip(ints.tolist(), values.tolist(), ints[::-1].tolist(), values[::-1].tolist()))
        expected, got = tmp_path / "expected.csv", tmp_path / "got.csv"
        write_csv_reference(expected, header, rows)
        cli._write_csv(got, header, [ints, values, ints[::-1], values[::-1]])
        assert got.read_bytes() == expected.read_bytes()

    def test_header_only_table(self, tmp_path):
        expected, got = tmp_path / "expected.csv", tmp_path / "got.csv"
        write_csv_reference(expected, ["row", "lo"], [])
        cli._write_csv(got, ["row", "lo"], [np.array([], dtype=int), np.array([])])
        assert got.read_bytes() == expected.read_bytes()

    def test_writing_holds_one_chunk_of_text(self, tmp_path):
        n = 200_000
        rng = np.random.default_rng(6)
        columns = [np.arange(n), np.zeros(n, dtype=int), rng.standard_normal(n), rng.standard_normal(n)]
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "p.csv", ["row", "interval_index", "lo", "hi"], columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole text at once, as lines and then joined, is about 50 MB
        assert peak <= 8_000_000, peak
