import json
import os

import numpy as np
import pytest
from test_blocks import force_branches

from difftf import gradcheck
from difftf.cli import main
from difftf.gradcheck import CheckRow
from difftf.fileio import read_csv, read_dataset, read_json, write_dataset, write_json


def run(args):
    return main([str(a) for a in args])


def tf_block(**changes):
    """A unit-gain 1x1 `tf` block of a model file, with the given entries changed."""
    return {"kind": "tf", "out_channels": 1, "in_channels": 1, "n_b": 0, "n_a": 1,
            "n_k": 0, "b": [[[1.0]]], "a": [[[0.0]]], **changes}


def strict_json(path):
    """The JSON document in path, refusing NaN and Infinity, which RFC 8259 lacks."""
    def reject(name):
        raise ValueError(f"{path}: {name} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


# files that train (as --data or --test-data) and eval refuse before any work,
# each with the reason the error names
CONSTANT_Y = "y column: fit index undefined for a constant reference signal"
UNUSABLE_DATA = {
    "header_only": ("t,u,y\n", "no data rows"),
    "zero_bytes": ("", "empty file"),
    "no_u_column": ("t,y\n0,1.0\n1,2.0\n", "missing u column"),
    # the norm of y - mean(y) is 0 for three 2.0s, but 2.4e-17 for three 0.1s
    "y_all_2.0": ("t,u,y\n0,1.0,2.0\n1,0.5,2.0\n2,-1.0,2.0\n", CONSTANT_Y),
    "y_all_0.1": ("t,u,y\n0,1.0,0.1\n1,0.5,0.1\n2,-1.0,0.1\n", CONSTANT_Y),
}


def eval_model(tmp_path, rng, blocks, *extra, T=64):
    """Exit code of eval of a model file with these blocks on T random samples."""
    data = tmp_path / "d.csv"
    write_dataset(data, rng.normal(0, 1, T), y=rng.normal(0, 1, T))
    write_json(tmp_path / "model.json", {"blocks": blocks})
    return run(["eval", "--model", tmp_path / "model.json", "--data", data, *extra])


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
    def test_zero_iterations_echoes_initialization(self, rng, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        out = tmp_path / "run"
        code = run(["train", "--data", data, "--arch", "fir", "--fir-taps", 4,
                    "--loss", "mse", "--iterations", 0, "--out", out])
        assert code == 0
        assert "nan" not in capsys.readouterr().out
        report = strict_json(out / "report.json")
        assert report["iterations"] == 0
        assert report["version"] == 2
        assert report["best_loss"] is None and report["final_loss"] is None
        strict_json(out / "model.json")
        assert read_csv(out / "trace.csv").keys() == {"iteration", "loss", "wall_time_s"}

    @pytest.mark.parametrize("env, blas_threads", [
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2"}, "3"),
        ({"OMP_NUM_THREADS": "2"}, "2"),
        ({}, None),
    ])
    def test_report_keys_and_the_threads_it_ran_with(self, rng, tmp_path, monkeypatch,
                                                     env, blas_threads):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--arch", "fir", "--fir-taps", 4, "--loss", "mse",
                    "--iterations", 2, "--test-data", data, "--out", out]) == 0
        report = read_json(out / "report.json")
        assert sorted(report) == sorted([
            "version", "blas_threads", "cpus", "loss", "arch", "seed", "lr", "lr_final",
            "iterations", "stopped_on_plateau", "final_loss", "best_loss",
            "divergence_restores", "skipped_steps", "best_iteration", "clamped_total",
            "wall_time_s", "train_fit_percent", "train_rmse", "test_fit_percent", "test_rmse",
        ])
        assert report["version"] == 2
        assert report["blas_threads"] == blas_threads and report["cpus"] == 3

    def test_unstable_trained_model_exits_2_without_a_model_file(self, rng, tmp_path,
                                                                 monkeypatch, capsys):
        from difftf import cli

        real_train = cli.train

        def ends_unstable(params, build_loss, config):
            result = real_train(params, build_loss, config)
            params[1].value[...] = -3.0  # block 0's denominator 1 - 3 q^-1: a pole at 3
            return result

        monkeypatch.setattr(cli, "train", ends_unstable)
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        out = tmp_path / "run"
        code = run(["train", "--data", data, "--arch", "wh", "--n-b", 1, "--n-a", 1,
                    "--hidden", 2, "--loss", "mse", "--iterations", 2, "--out", out])
        assert code == 2
        assert "block 0 (tf) cell (0, 0) has a pole of radius 3 >= 1" in capsys.readouterr().err
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert events[-1] == {"event": "unstable_pole", "block": 0, "cell": [0, 0],
                              "radius": pytest.approx(3.0)}
        assert not (out / "model.json").exists()

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

    def test_config_file_that_is_no_json_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert run(["gradcheck", "--config", cfg_path]) == 1
        assert "bad config file" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [5, "abc", [["iterations", 5]], None])
    def test_config_file_that_is_no_object_is_usage_error(self, tmp_path, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert run(["gradcheck", "--config", cfg_path]) == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err

    def test_quantized_run_reports_its_iterations(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "pwh-quantized", "--T", 128,
                    "--realizations", 1, "--seed", 4, "--out", gen]) == 0
        out = tmp_path / "run"
        code = run(["train", "--data", gen / "train.csv", "--arch", "pwh",
                    "--n-b", 2, "--n-a", 2, "--hidden", 3, "--loss", "quantized",
                    "--quantizer", gen / "meta.json", "--iterations", 8,
                    "--lr", "1e-3", "--out", out])
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
        assert report["version"] == 2

    def test_threaded_quantized_run_writes_the_serial_run_files(self, tmp_path, monkeypatch):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "pwh-quantized", "--T", 4096, "--realizations", 1,
                    "--rms-levels", "0.5,1.0", "--seed", 3, "--out", gen]) == 0
        files = []
        for threaded in (True, False):
            force_branches(monkeypatch, threaded)
            out = tmp_path / f"run-{threaded}"
            assert run(["train", "--data", gen / "train.csv", "--arch", "pwh",
                        "--loss", "quantized", "--quantizer", gen / "meta.json",
                        "--iterations", 4, "--lr", "1e-3", "--seed", 0, "--out", out]) == 0
            losses = [row.split(",")[1] for row in (out / "trace.csv").read_text().splitlines()]
            files.append(((out / "model.json").read_bytes(),
                          (out / "events.jsonl").read_bytes(), losses))
        assert files[0] == files[1]

    @pytest.mark.parametrize("which, case", [
        pytest.param(which, case, id=which if case == "header_only" else f"{which}-{case}")
        for case in UNUSABLE_DATA for which in ("data", "test_data")
    ])
    def test_header_only_dataset_exits_3_before_training(self, rng, tmp_path, capsys,
                                                         monkeypatch, which, case):
        """It and every other unusable file exit 3 before training, and make no --out."""
        from difftf import cli

        def no_training(*args):
            raise AssertionError("training ran")

        monkeypatch.setattr(cli, "train", no_training)
        full, bad = tmp_path / "d.csv", tmp_path / "bad.csv"
        write_dataset(full, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        body, reason = UNUSABLE_DATA[case]
        bad.write_text(body)
        files = {"data": full, "test_data": full, which: bad}
        out = tmp_path / "run"
        code = run(["train", "--data", files["data"], "--test-data", files["test_data"],
                    "--arch", "fir", "--fir-taps", 3, "--loss", "mse", "--iterations", 2,
                    "--out", out])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {bad}: {reason}\n"
        assert not out.exists()


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
        # stable poles pass eval's pole check; a gain of 1e308 overflows the output
        doc["blocks"][0]["b"][0][0][0] = 1e308
        write_json(out / "model.json", doc)
        assert run(["eval", "--model", out / "model.json", "--data", data]) == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err and "t=" in err and "batch element 0" in err

    @pytest.mark.parametrize("path, value, reason", [
        (("blocks", 1, "w1", 0, 0), float("nan"), "block1.w1 holds a non-finite value (nan)"),
        (("normalization", "u_std", 0), float("nan"),
         "normalization.u_std holds a non-finite value (nan)"),
        (("log_sigma_e",), float("inf"), "log_sigma_e holds a non-finite value (inf)"),
        (("normalization", "u_std", 0), 0.0, "normalization.u_std must be > 0, got 0"),
    ], ids=["w1_nan", "u_std_nan", "log_sigma_e_inf", "u_std_zero"])
    def test_model_file_with_unusable_number_is_data_error(
            self, rng, tmp_path, capsys, path, value, reason):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--arch", "wh", "--n-b", 2, "--n-a", 2,
                    "--hidden", 3, "--loss", "mse", "--iterations", 0, "--out", out]) == 0
        doc = read_json(out / "model.json")
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        # json.dumps writes nan as NaN, which json.load reads back
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["eval", "--model", out / "model.json", "--data", data]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"data error: model file entry {reason}\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("block, named", [
        (tf_block(in_channels=2, b=[[[1.0], [1.0]]], a=[[[0.0], [0.0]]]),
         "expects 2 channels, got 1"),
        (tf_block(out_channels=2, b=[[[1.0]], [[1.0]]], a=[[[0.0]], [[0.0]]]),
         "gives 2 output channels, the data has 1"),
    ])
    def test_model_wider_than_the_data_is_data_error_naming_both_widths(
            self, rng, tmp_path, capsys, block, named):
        assert eval_model(tmp_path, rng, [block]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and named in err

    @pytest.mark.parametrize("block, named", [
        ({"kind": "parallel_mlp", "nets": []}, "nets >= 1, got 0"),
        (tf_block(out_channels=0, b=[], a=[]), "out_channels >= 1, got 0"),
    ])
    def test_block_without_channels_is_data_error(self, rng, tmp_path, capsys, block, named):
        assert eval_model(tmp_path, rng, [block]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and named in err

    def test_non_finite_fit_is_numeric_failure_and_writes_no_report(
            self, rng, tmp_path, capsys):
        report = tmp_path / "report.json"
        # an output gain of 1e200 keeps the output finite, but not its square
        net = {"kind": "mlp", "in_width": 1, "hidden": 1, "out_width": 1,
               "w1": [[1.0]], "b1": [0.0], "w2": [[1e200]], "b2": [0.0]}
        code = eval_model(tmp_path, rng, [tf_block(), net], "--report", report)
        assert code == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err and "non-finite fit index" in err
        assert not report.exists()

    @pytest.mark.parametrize("a, radius", [([[[-3.0]]], "3"), ([[[0.0, -1.0]]], "1")])
    def test_unstable_pole_is_numeric_failure_on_a_short_series(
            self, rng, tmp_path, capsys, a, radius):
        # 64 samples: a pole at 3 gives a huge but finite output, which was scored
        report = tmp_path / "report.json"
        block = tf_block(n_a=len(a[0][0]), a=a)
        assert eval_model(tmp_path, rng, [block], "--report", report) == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert f"block 0 (tf) cell (0, 0) has a pole of radius {radius} >= 1" in err
        assert not report.exists()

    def test_eval_rejects_quantized_data(self, rng, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 32), y=rng.normal(0, 1, 32))
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--arch", "fir", "--fir-taps", 2,
                    "--loss", "mse", "--iterations", 1, "--out", out]) == 0
        zdata = tmp_path / "z.csv"
        write_dataset(zdata, rng.normal(0, 1, 32), z=rng.integers(0, 3, 32))
        assert run(["eval", "--model", out / "model.json", "--data", zdata]) == 1

    def test_header_only_eval_data_exits_3(self, tmp_path, capsys):
        """It and every other unusable file exit 3 and write no report."""
        empty = tmp_path / "empty.csv"
        write_json(tmp_path / "model.json", {"blocks": [tf_block()]})
        report = tmp_path / "eval.json"
        for body, reason in [("seq,t,u,y\n", "no data rows"), *UNUSABLE_DATA.values()]:
            empty.write_text(body)
            assert run(["eval", "--model", tmp_path / "model.json", "--data", empty,
                        "--report", report]) == 3
            assert capsys.readouterr().err == f"data error: {empty}: {reason}\n"
            assert not report.exists()

    def test_bode_of_a_model_without_noise_filter_is_usage_error(self, rng, tmp_path,
                                                                  capsys):
        data = tmp_path / "d.csv"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--arch", "fir", "--fir-taps", 3,
                    "--loss", "mse", "--iterations", 1, "--out", out]) == 0
        bode = tmp_path / "bode.csv"
        assert run(["eval", "--model", out / "model.json", "--data", data,
                    "--bode", bode]) == 1
        assert "model has no noise filter to export" in capsys.readouterr().err
        assert not bode.exists()


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
            "train": ["arch", "data", "fir_taps", "hidden", "init_sigma",
                      "iterations", "log_every", "loss", "lr", "n_a", "n_b", "n_k",
                      "noise_n_a", "noise_n_b", "out", "plateau_patience", "plateau_rtol",
                      "quantizer", "seed", "test_data"],
            "eval": ["bode", "data", "model", "report", "truth"],
            "gradcheck": ["seed"],
        }
        assert sum(map(len, keys.values())) == 35

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_batch_size_is_rejected(self, rng, tmp_path, capsys, source):
        data, cfg_path = tmp_path / "d.csv", tmp_path / "cfg.json"
        write_dataset(data, rng.normal(0, 1, 64), y=rng.normal(0, 1, 64))
        cfg_path.write_text(json.dumps({"batch_size": 2}))
        extra = {"flag": ["--batch-size", 2], "config": ["--config", cfg_path]}[source]
        out = tmp_path / "r"
        assert run(["train", "--data", data, "--arch", "fir", "--fir-taps", 3,
                    "--loss", "mse", "--iterations", 2, *extra, "--out", out]) == 1
        assert ("unrecognized arguments: --batch-size" if source == "flag"
                else "unknown config keys: ['batch_size']") in capsys.readouterr().err
        assert not out.exists()

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
