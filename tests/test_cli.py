import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import conformal_hpd.sim as sim
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

    def test_threads_env_var_fallback(self, monkeypatch):
        from conformal_hpd.cli import _build_parser

        monkeypatch.setenv("CONFORMAL_HPD_THREADS", "3")
        args = _build_parser().parse_args(["simulate", "--scenario", "bimodal"])
        assert args.threads == 3
        monkeypatch.setenv("CONFORMAL_HPD_THREADS", "junk")
        args = _build_parser().parse_args(["simulate", "--scenario", "bimodal"])
        assert args.threads == 1


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

    def test_non_finite_test_covariate_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, 100)
        y = 5 + 2 * x + rng.standard_normal(100)
        train = tmp_path / "train.csv"
        write_csv(
            train, ["x0", "y"], [[repr(float(a)), repr(float(b))] for a, b in zip(x, y)]
        )
        test = tmp_path / "test.csv"
        write_csv(test, ["x0", "y"], [["1.0", "7.0"], ["nan", "7.0"]])
        out = tmp_path / "o"
        code = run_cli(
            "predict", "--train", str(train), "--test", str(test),
            "--target", "y", "--outdir", str(out),
        )
        assert code == 1
        assert "covariates must be finite" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

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
    def test_oracle_trace_matches_oracle_hpd(self, tmp_path):
        from conformal_hpd.sim import oracle_hpd

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
        for x, ivals in by_x.items():
            expected = oracle_hpd(scn, x).intervals
            assert len(ivals) == len(expected) == 2
            for got, exp in zip(ivals, expected):
                assert got == pytest.approx(exp, abs=1e-9)

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
