import csv
import json
import math
import os
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
from conformal_hpd.sim import Scenario, generate


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


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

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "_timer", lambda: 0.0)
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
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_thread_count_does_not_change_reports(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "_timer", lambda: 0.0)
        args = [
            "simulate", "--scenario", "unimodal-symmetric", "--methods",
            "secpr,kde-hpd", "--reps", "4", "--n", "200", "--seed", "3",
        ]
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run_cli(*args, "--threads", "1", "--outdir", str(out1)) == 0
        assert run_cli(*args, "--threads", "2", "--outdir", str(out2)) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

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

    def test_newlines_and_no_bom(self, tmp_path):
        run_cli(
            "simulate", "--scenario", "bowtie", "--methods", "secpr",
            "--reps", "1", "--n", "120", "--outdir", str(tmp_path),
        )
        raw = (tmp_path / "report.csv").read_bytes()
        assert not raw.startswith(b"\xef\xbb\xbf")
        assert b"\r" not in raw

    def test_threads_env_var_fallback(self, tmp_path, monkeypatch, capsys):
        seen = []

        def record(scn, methods, reps, threads, scale_model):
            seen.append(threads)
            return []

        monkeypatch.setattr(cli, "run_replications", record)
        args = ["simulate", "--scenario", "bimodal", "--outdir", str(tmp_path)]
        monkeypatch.setenv("CONFORMAL_HPD_THREADS", "3")
        assert run_cli(*args) == 0
        assert run_cli(*args, "--threads", "2") == 0
        assert seen == [3, 2]
        for bad in ("junk", "0", "-2"):
            monkeypatch.setenv("CONFORMAL_HPD_THREADS", bad)
            assert run_cli(*args) == 2
            assert "CONFORMAL_HPD_THREADS" in capsys.readouterr().err
        assert seen == [3, 2]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_exits_2(self, tmp_path, capsys, threads):
        code = run_cli(
            "simulate", "--scenario", "bimodal", "--reps", "1", "--n", "40",
            "--threads", threads, "--outdir", str(tmp_path),
        )
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_bad_threads_env_var_leaves_other_commands_alone(self, sim_csvs, tmp_path, monkeypatch):
        _, train_path, test_path = sim_csvs
        monkeypatch.setenv("CONFORMAL_HPD_THREADS", "junk")
        pred = tmp_path / "p"
        assert run_cli(
            "predict", "--train", str(train_path), "--test", str(test_path),
            "--target", "price", "--method", "secpr", "--outdir", str(pred),
        ) == 0
        assert run_cli(
            "evaluate", "--predictions", str(pred / "predictions.csv"),
            "--truth", str(test_path), "--target", "price", "--outdir", str(tmp_path / "e"),
        ) == 0
        assert run_cli(
            "regions", "--scenario", "bimodal", "--method", "secpr", "--n", "200",
            "--grid-points", "5", "--outdir", str(tmp_path / "r"),
        ) == 0


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
        assert "scale fold is empty" in capsys.readouterr().err
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
        plans = {}

        def recorder(name, fit):
            def wrapped(tag, observed, plan, alpha, scale_on):
                plans[name] = tuple(a.tolist() for a in (plan.idx_train1, plan.idx_train2, plan.idx_cal))
                return fit(tag, observed, plan, alpha, scale_on)
            return wrapped

        monkeypatch.setattr(cli, "fit_method", recorder("regions", sim.fit_method))
        monkeypatch.setattr(sim, "fit_method", recorder("simulate", sim.fit_method))
        common = ["--scenario", "bowtie", "--n", n, "--scale-model", scale_model]
        assert run_cli(
            "regions", *common, "--method", "secpr", "--grid-points", "3",
            "--outdir", str(tmp_path / "r"),
        ) == 0
        assert run_cli(
            "simulate", *common, "--methods", "secpr", "--reps", "1", "--n-test", "1",
            "--threads", "1", "--outdir", str(tmp_path / "s"),
        ) == 0
        assert plans["regions"] == plans["simulate"]
        folds = tuple(map(len, plans["regions"]))
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
]


def read_both(path, monkeypatch):
    """``_read_table`` with numpy's parser allowed and on the csv path alone.

    Returns the two results (a UsageError becomes its message) and whether
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
            except cli.UsageError as exc:
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
            with pytest.raises(cli.UsageError, match=expected):
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
        with pytest.raises(cli.UsageError, match="header row required"):
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
    def test_bytes_equal_the_csv_writer_path(self, tmp_path):
        header = ["metric", "group, quoted \"g\"", "i", "value"]
        labels = ["plain", "a,b", 'say "hi"', "", "two\nlines", " pad ", "cr\rx", "#"]
        ints = np.arange(len(labels)) * 7 - 3
        values = np.array(
            [math.inf, -math.inf, math.nan, -0.0, 1e-300, 0.1, 1 / 3, 1.2345678901234567e17]
        )
        rows = list(zip(labels, labels[::-1], ints.tolist(), values.tolist()))
        expected, got = tmp_path / "expected.csv", tmp_path / "got.csv"
        write_csv_reference(expected, header, rows)
        cli._write_csv(got, header, [labels, labels[::-1], ints, values])
        assert got.read_bytes() == expected.read_bytes()
        # list columns of Python numbers format the same way
        cli._write_csv(got, header, [labels, labels[::-1], ints.tolist(), values.tolist()])
        assert got.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("extra", [-1, 0, 1, cli.CSV_CHUNK_ROWS + 3])
    def test_bytes_equal_the_csv_writer_path_across_chunks(self, tmp_path, extra):
        n = cli.CSV_CHUNK_ROWS + extra
        rng = np.random.default_rng(n)
        specials = np.array([math.inf, -math.inf, math.nan, -0.0, 1e-300])
        values = np.where(rng.random(n) < 0.2, rng.choice(specials, n), rng.standard_normal(n))
        ints = rng.integers(-10, 10, n)
        labels = [("a,b", 'q"', "x\ny", "plain", "")[i % 5] + str(i) for i in range(n)]
        header = ["label", "i", "value", "text"]
        rows = list(zip(labels, ints.tolist(), values.tolist(), labels[::-1]))
        expected, got = tmp_path / "expected.csv", tmp_path / "got.csv"
        write_csv_reference(expected, header, rows)
        cli._write_csv(got, header, [labels, ints, values, tuple(labels[::-1])])
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
