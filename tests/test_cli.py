import json
import os

import numpy as np
import pytest

from difftf import gradcheck
from difftf.cli import main
from difftf.gradcheck import CheckRow
from difftf.fileio import read_csv, read_dataset, read_json, write_dataset, write_json


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_wh_colored_files_and_row_count(self, tmp_path):
        out = tmp_path / "wh"
        code = run(["generate", "--kind", "wh-colored", "--T", 500,
                    "--seed", 1, "--out", out])
        assert code == 0
        u, y, kind = read_dataset(out / "train.csv")
        assert kind == "y" and u.shape == (1, 500)
        assert (out / "test.csv").exists()
        assert (out / "truth.json").exists()
        meta = read_json(out / "meta.json")
        assert meta["seed"] == 1

    def test_same_seed_gives_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "--kind", "wh-colored", "--T", 200,
                        "--seed", 7, "--out", out]) == 0
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()

    def test_pwh_quantized_schema(self, tmp_path):
        out = tmp_path / "pwh"
        code = run(["generate", "--kind", "pwh-quantized", "--T", 128,
                    "--realizations", 1, "--seed", 2, "--out", out])
        assert code == 0
        u, z, kind = read_dataset(out / "train.csv")
        assert kind == "z"
        assert u.shape == (5, 128)
        assert z.min() >= 0 and z.max() <= 11
        meta = read_json(out / "meta.json")
        assert len(meta["thresholds"]) == 13

    def test_unknown_kind_is_usage_error(self, tmp_path):
        assert run(["generate", "--kind", "nope", "--T", 10,
                    "--out", tmp_path / "x"]) == 1

    def test_rejected_settings_leave_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "D"
        # T = 3 at the default band excites no line below Nyquist
        assert run(["generate", "--kind", "pwh-quantized", "--T", 3,
                    "--realizations", 1, "--out", out]) == 3
        assert "excitable line" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_zero_iterations_echoes_initialization(self, rng, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        out = tmp_path / "run"
        code = run(["train", "--data", data, "--arch", "fir", "--fir-taps", 4,
                    "--loss", "mse", "--iterations", 0, "--out", out])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["iterations"] == 0
        assert report["version"] == 1
        assert (out / "model.json").exists()
        assert read_csv(out / "trace.csv").keys() == {"iteration", "loss", "wall_time_s"}

    def test_clean_run_writes_empty_events_file(self, rng, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        out = tmp_path / "run"
        code = run(["train", "--data", data, "--arch", "fir", "--fir-taps", 4,
                    "--loss", "mse", "--iterations", 20, "--out", out])
        assert code == 0
        assert read_json(out / "report.json")["divergence_restores"] == 0
        assert (out / "events.jsonl").read_text() == ""

    def test_fir_mse_pipeline_improves_fit(self, rng, tmp_path):
        from difftf.tf_core import TransferFunction, filter_forward

        u = rng.normal(0.0, 1.0, 400)
        y = filter_forward(TransferFunction([0.9, 0.4, -0.3], [], 0), u)
        data = tmp_path / "d.csv"
        write_dataset(data, u, y=y)
        out = tmp_path / "run"
        code = run(["train", "--data", data, "--arch", "fir", "--fir-taps", 5,
                    "--loss", "mse", "--iterations", 1500, "--lr", "0.02",
                    "--seed", 0, "--out", out])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["train_fit_percent"] > 99.0

    def test_quantized_loss_requires_quantizer(self, rng, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 32), z=rng.integers(0, 12, 32))
        code = run(["train", "--data", data, "--arch", "fir", "--loss", "quantized",
                    "--iterations", 1, "--out", tmp_path / "r"])
        assert code == 1

    @pytest.mark.parametrize("doc", [5, {"edges": [0.0, 1.0, 2.0]}])
    def test_quantizer_file_without_thresholds_is_usage_error(self, rng, tmp_path, doc):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 32), z=rng.integers(0, 2, 32))
        write_json(tmp_path / "q.json", doc)
        code = run(["train", "--data", data, "--arch", "fir", "--loss", "quantized",
                    "--quantizer", tmp_path / "q.json", "--iterations", 1,
                    "--out", tmp_path / "r"])
        assert code == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("thresholds", [
        [[-1.0, 0.0], [0.5, 1.0]], [[-1.0, 0.0], [0.5]], [-1.0, "x", 1.0],
        [-1.0, 0.0, float("inf")], [1.0, 0.0, -1.0],
    ])
    def test_bad_quantizer_thresholds_are_usage_error_naming_the_file(
            self, rng, tmp_path, capsys, thresholds):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 32), z=rng.integers(0, 2, 32))
        # json.dumps writes inf as Infinity, which json.load reads back
        (tmp_path / "q.json").write_text(json.dumps({"thresholds": thresholds}))
        code = run(["train", "--data", data, "--arch", "fir", "--loss", "quantized",
                    "--quantizer", tmp_path / "q.json", "--iterations", 1,
                    "--out", tmp_path / "r"])
        assert code == 1
        err = capsys.readouterr().err
        assert "q.json" in err and "flat, increasing, finite list" in err
        assert "train.csv" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("bad_bin", [12, -1])
    def test_out_of_range_bin_index_is_data_error(self, rng, tmp_path, capsys, bad_bin):
        data = tmp_path / "d.csv"
        z = rng.integers(0, 12, 32)
        z[5] = bad_bin
        write_dataset(data, rng.normal(0, 1, 32), z=z)
        write_json(tmp_path / "q.json", {"thresholds": np.linspace(-1, 1, 13).tolist()})
        code = run(["train", "--data", data, "--arch", "fir", "--loss", "quantized",
                    "--quantizer", tmp_path / "q.json", "--iterations", 1,
                    "--out", tmp_path / "r"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"bin index {bad_bin}" in err and "12 bins" in err
        assert not (tmp_path / "r").exists()

    def test_non_finite_input_is_data_error_before_training(self, rng, tmp_path, capsys):
        data = tmp_path / "d.csv"
        u = rng.normal(0, 1, 64)
        u[10] = np.nan
        write_dataset(data, u, y=rng.normal(0, 1, 64))
        code = run(["train", "--data", data, "--arch", "wh", "--n-b", 2, "--n-a", 2,
                    "--hidden", 3, "--loss", "mse", "--iterations", 5,
                    "--out", tmp_path / "r"])
        assert code == 3
        assert "u column" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_input_overflowing_its_statistics_is_data_error(self, rng, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data, 1e300 * rng.normal(0, 1, 200), y=rng.normal(0, 1, 200))
        code = run(["train", "--data", data, "--arch", "fir", "--loss", "mse",
                    "--iterations", 5, "--out", tmp_path / "r"])
        assert code == 3
        assert "the u column (channel 0) overflows" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_diverged_run_exits_2_and_leaves_its_events(self, rng, tmp_path, monkeypatch):
        from difftf import blocks
        from difftf.tf_core import FilterDivergenceError

        def diverges(params, rows):
            raise FilterDivergenceError(3)

        monkeypatch.setattr(blocks, "filter_rows", diverges)
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        out = tmp_path / "run"
        code = run(["train", "--data", data, "--arch", "fir", "--fir-taps", 4,
                    "--loss", "mse", "--iterations", 20, "--out", out])
        assert code == 2
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [e["event"] for e in events] == ["divergence_restore"] * 5 + ["divergence_abort"]
        assert all(e["pass"] == "forward" and e["t"] == 3 for e in events)
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("test_file, code", [("absent.csv", 3), ("z.csv", 1)])
    def test_bad_test_data_fails_before_training(self, rng, tmp_path, monkeypatch,
                                                 test_file, code):
        from difftf import cli

        def no_training(*args):
            raise AssertionError("training ran")

        monkeypatch.setattr(cli, "train", no_training)
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        write_dataset(tmp_path / "z.csv", rng.normal(0, 1, 64), z=rng.integers(0, 12, 64))
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--arch", "fir", "--loss", "mse",
                    "--iterations", 5, "--test-data", tmp_path / test_file,
                    "--out", out]) == code
        assert not out.exists()

    def test_loss_kind_data_mismatch(self, rng, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 32), y=rng.normal(0, 1, 32))
        code = run(["train", "--data", data, "--loss", "quantized",
                    "--iterations", 1, "--out", tmp_path / "r"])
        assert code == 1

    def test_missing_data_file_is_io_error(self, tmp_path):
        code = run(["train", "--data", tmp_path / "absent.csv",
                    "--iterations", 1, "--out", tmp_path / "r"])
        assert code == 3

    def test_config_file_with_flag_override(self, rng, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        cfg = {"data": str(data), "arch": "fir", "fir_taps": 3, "loss": "mse",
               "iterations": 5, "lr": 0.01, "out": str(tmp_path / "r1")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["train", "--config", cfg_path]) == 0
        assert run(["train", "--config", cfg_path, "--out", tmp_path / "r2"]) == 0
        assert (tmp_path / "r2" / "report.json").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"no_such_key": 1}))
        assert run(["train", "--config", cfg_path]) == 1

    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        for value in ("many", 2.7, float("inf")):
            cfg_path.write_text(json.dumps({"iterations": value}))
            assert run(["train", "--config", cfg_path]) == 1
            assert "iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [5, "abc", [["iterations", 5]], None])
    def test_config_file_that_is_no_object_is_usage_error(self, tmp_path, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert run(["gradcheck", "--config", cfg_path]) == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err

    def test_minibatch_samples_sequences(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "pwh-quantized", "--T", 128,
                    "--realizations", 1, "--seed", 4, "--out", gen]) == 0
        out = tmp_path / "run"
        code = run(["train", "--data", gen / "train.csv", "--arch", "pwh",
                    "--n-b", 2, "--n-a", 2, "--hidden", 3, "--loss", "quantized",
                    "--quantizer", gen / "meta.json", "--iterations", 8,
                    "--lr", "1e-3", "--batch-size", 2, "--out", out])
        assert code == 0
        assert read_json(out / "report.json")["iterations"] == 8

    @pytest.mark.parametrize("init_sigma,clamped", [("1e-6", True), ("0.1", False)])
    def test_report_counts_clamped_likelihood_terms(self, tmp_path, init_sigma, clamped):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "pwh-quantized", "--T", 64,
                    "--realizations", 1, "--seed", 4, "--out", gen]) == 0
        out = tmp_path / "run"
        assert run(["train", "--data", gen / "train.csv", "--arch", "pwh",
                    "--n-b", 2, "--n-a", 2, "--hidden", 3, "--loss", "quantized",
                    "--quantizer", gen / "meta.json", "--iterations", 1,
                    "--init-sigma", init_sigma, "--out", out]) == 0
        report = read_json(out / "report.json")
        assert (report["clamped_total"] > 0) == clamped
        assert report["skipped_steps"] == 0 and report["best_iteration"] == 0
        assert report["version"] == 1

    def test_minibatch_needs_multiple_sequences(self, rng, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        code = run(["train", "--data", data, "--arch", "fir", "--fir-taps", 3,
                    "--loss", "mse", "--iterations", 2, "--batch-size", 1,
                    "--out", tmp_path / "r"])
        assert code == 1

    def test_negative_batch_size_is_usage_error(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "pwh-quantized", "--T", 64,
                    "--realizations", 1, "--seed", 4, "--out", gen]) == 0
        code = run(["train", "--data", gen / "train.csv", "--arch", "pwh",
                    "--n-b", 2, "--n-a", 2, "--hidden", 3, "--loss", "quantized",
                    "--quantizer", gen / "meta.json", "--iterations", 2,
                    "--batch-size", -1, "--out", tmp_path / "r"])
        assert code == 1


class TestEval:
    def test_eval_metrics_and_report(self, rng, tmp_path):
        data = tmp_path / "d.csv"
        u = rng.normal(0, 1, 128)
        y = rng.normal(0, 1, 128)
        write_dataset(data, u, y=y)
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--arch", "fir", "--fir-taps", 3,
                    "--loss", "mse", "--iterations", 50, "--lr", "0.01",
                    "--out", out]) == 0
        report_path = tmp_path / "eval.json"
        code = run(["eval", "--model", out / "model.json", "--data", data,
                    "--report", report_path])
        assert code == 0
        report = read_json(report_path)
        assert {"version", "fit_percent", "rmse"} <= report.keys()

    def test_eval_bode_with_truth(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "wh-colored", "--T", 300, "--seed", 0,
                    "--out", gen]) == 0
        out = tmp_path / "run"
        assert run(["train", "--data", gen / "train.csv", "--arch", "wh",
                    "--n-b", 2, "--n-a", 2, "--hidden", 3, "--loss", "pem",
                    "--iterations", 3, "--lr", "1e-4", "--out", out]) == 0
        bode = tmp_path / "bode.csv"
        code = run(["eval", "--model", out / "model.json", "--data", gen / "test.csv",
                    "--bode", bode, "--truth", gen / "truth.json"])
        assert code == 0
        cols = read_csv(bode)
        assert {"frequency", "magnitude_db", "true_magnitude_db"} == cols.keys()

    def test_eval_bode_of_noise_filter_without_delay_is_data_error(self, tmp_path, capsys):
        # truth.json stores H itself (n_k = 0), not the strictly proper block Hc
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "wh-colored", "--T", 300, "--seed", 0,
                    "--out", gen]) == 0
        code = run(["eval", "--model", gen / "truth.json", "--data", gen / "test.csv",
                    "--bode", tmp_path / "bode.csv", "--truth", gen / "truth.json"])
        assert code == 3
        assert "exactly one input delay" in capsys.readouterr().err

    def test_eval_of_unstable_filter_is_numeric_failure(self, rng, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 400), y=rng.normal(0, 1, 400))
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--arch", "wh", "--n-b", 2, "--n-a", 2,
                    "--hidden", 3, "--loss", "mse", "--iterations", 0, "--out", out]) == 0
        doc = read_json(out / "model.json")
        doc["blocks"][0]["a"][0][0][0] = -30.0  # pole at 30
        write_json(out / "model.json", doc)
        assert run(["eval", "--model", out / "model.json", "--data", data]) == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err and "t=" in err and "batch element 0" in err

    @pytest.mark.parametrize("doc, named", [
        ({"version": 1}, "'blocks'"),
        ({"blocks": [{"kind": "nope"}]}, "'nope'"),
        ({"blocks": [1]}, "malformed"),
    ])
    def test_malformed_model_file_is_data_error(self, rng, tmp_path, capsys, doc, named):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 32), y=rng.normal(0, 1, 32))
        write_json(tmp_path / "model.json", doc)
        assert run(["eval", "--model", tmp_path / "model.json", "--data", data]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and named in err

    def test_eval_rejects_quantized_data(self, rng, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 32), y=rng.normal(0, 1, 32))
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--arch", "fir", "--fir-taps", 2,
                    "--loss", "mse", "--iterations", 1, "--out", out]) == 0
        zdata = tmp_path / "z.csv"
        write_dataset(zdata, rng.normal(0, 1, 32), z=rng.integers(0, 3, 32))
        assert run(["eval", "--model", out / "model.json", "--data", zdata]) == 1


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert run(["gradcheck", "--seed", 0]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_failing_row_prints_fail_and_exits_2(self, monkeypatch, capsys):
        rows = [CheckRow("ok.row", 0.0, 1e-5), CheckRow("bad.row", 0.5, 1e-5)]
        monkeypatch.setattr(gradcheck, "run_all", lambda seed=0: rows)
        assert run(["gradcheck", "--seed", 0]) == 2
        out = capsys.readouterr().out
        assert "bad.row" in out and "FAIL" in out and "1 gradient check(s) failed" in out

    def test_same_seed_same_table(self, capsys):
        run(["gradcheck", "--seed", 3])
        first = capsys.readouterr().out
        run(["gradcheck", "--seed", 3])
        second = capsys.readouterr().out
        assert first == second


class TestUsage:
    def test_settings_tables_are_pinned(self):
        from difftf.cli import _DISPATCH

        keys = {name: sorted(table) for name, (_handler, table) in _DISPATCH.items()}
        assert keys == {
            "generate": ["T", "band", "kind", "out", "realizations", "rms_levels", "seed",
                         "sigma_e", "test_T"],
            "train": ["arch", "batch_size", "data", "fir_taps", "hidden", "init_sigma",
                      "iterations", "log_every", "loss", "lr", "n_a", "n_b", "n_k",
                      "noise_n_a", "noise_n_b", "out", "plateau_patience", "plateau_rtol",
                      "quantizer", "seed", "test_data"],
            "eval": ["bode", "data", "model", "report", "truth"],
            "gradcheck": ["seed"],
        }
        assert sum(map(len, keys.values())) == 36

    def test_missing_required_settings(self):
        assert run(["generate"]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize("base, bad", [
        ("generate-pwh", ["--realizations", 0]),
        ("generate-wh", ["--T", 0]),
        ("generate-wh", ["--test-T", -5]),
        ("generate-pwh", ["--sigma-e", -1]),
        ("generate-pwh", ["--band", 0.6]),
        ("generate-pwh", ["--rms-levels", "0.5,-1"]),
        ("train-pem", ["--hidden", 0]),
        ("train-pem", ["--hidden", -1]),
        ("train-quantized", ["--init-sigma", -1]),
        ("train-quantized", ["--init-sigma", 0]),
        ("train-pem", ["--lr", "nan"]),
        ("train-pem", ["--lr", "inf"]),
        ("train-pem", ["--n-b", -1]),
        ("train-pem", ["--n-a", -1]),
        ("train-pem", ["--noise-n-b", -1]),
        ("train-pem", ["--noise-n-a", -1]),
        ("train-pem", ["--fir-taps", 0, "--arch", "fir"]),
        ("train-pem", ["--iterations", -1]),
        ("train-pem", ["--plateau-patience", -1]),
        ("train-pem", ["--log-every", -1]),
        ("gradcheck", ["--seed", -1]),
        ("train-pem", ["--n-k", -1, "--arch", "fir"]),
    ])
    def test_out_of_range_setting_is_usage_error_before_any_work(
        self, tmp_path, capsys, base, bad
    ):
        out = tmp_path / "out"
        gen = tmp_path / "gen"
        if base.startswith("generate"):
            kind = "pwh-quantized" if base == "generate-pwh" else "wh-colored"
            argv = ["generate", "--kind", kind, "--T", 64, "--realizations", 1, "--out", out]
        elif base == "train-pem":
            assert run(["generate", "--kind", "wh-colored", "--T", 64, "--out", gen]) == 0
            argv = ["train", "--data", gen / "train.csv", "--arch", "wh", "--n-b", 2,
                    "--n-a", 2, "--hidden", 3, "--loss", "pem", "--iterations", 2,
                    "--out", out]
        elif base == "train-quantized":
            assert run(["generate", "--kind", "pwh-quantized", "--T", 64,
                        "--realizations", 1, "--out", gen]) == 0
            argv = ["train", "--data", gen / "train.csv", "--arch", "pwh", "--n-b", 2,
                    "--n-a", 2, "--hidden", 3, "--loss", "quantized",
                    "--quantizer", gen / "meta.json", "--iterations", 2, "--out", out]
        else:
            argv = ["gradcheck"]
        capsys.readouterr()
        assert run(argv + bad) == 1
        captured = capsys.readouterr()
        setting = bad[0][2:].replace("-", "_")
        assert "usage error" in captured.err and setting in captured.err
        assert captured.out == "" and not out.exists()
