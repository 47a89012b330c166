"""Command-line pipelines: generate, train, eval, gradcheck.

Every subcommand takes long-form flags, optionally seeded from a JSON config
file (--config); explicit flags override config values, and unknown config
keys are rejected before any work happens. Exit codes: 0 success, 1 usage,
2 numeric failure, 3 I/O or bad data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import datagen, fileio, gradcheck
from .blocks import BlockModel, MimoTransferFunction, ModelFile, Normalization, build_pwh, build_wh
from .metrics import fit_index, mse_loss_node, require_spread, rmse
from .optim import TrainConfig, TrainingDivergedError, train
from .pem import PemModel, bode_magnitude_table, invert_monic_noise_filter
from .quantized import LoglikDiagnostics, Quantizer, quantized_loglik_node
from .tape import Parameter, Tape
from .tf_core import FilterDivergenceError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(lo):
    return (lambda v: v >= lo), f">= {lo}"


def _one_of(*choices):
    return (lambda v: v in choices), "one of " + ", ".join(map(str, choices))


def levels(text):
    """Comma-separated numbers as a tuple of floats; str() takes a config file's bare number."""
    return tuple(float(x) for x in str(text).split(","))


_POSITIVE = (lambda v: v > 0), "> 0"
_POSITIVE_LEVELS = (lambda v: all(0 < x < math.inf for x in v)), "positive numbers"

# name -> (type, default, domain); a None default means "required unless in
# config". A domain is (test, text): the value must pass test, text names the
# domain in the usage error, and None allows any value. Floats must be finite.
_GENERATE_KEYS = {
    "kind": (str, None, _one_of("wh-colored", "pwh-quantized")),
    "T": (int, None, _at_least(1)),
    "seed": (int, 0, _at_least(0)),
    "out": (str, None, None),
    "test_T": (int, 0, _at_least(0)),  # 0: half of T
    "rms_levels": (levels, datagen.PWH_RMS_LEVELS, _POSITIVE_LEVELS),
    "realizations": (int, 4, _at_least(1)),
    "sigma_e": (float, 0.03, _POSITIVE),
    "band": (float, 0.3, ((lambda v: 0 < v < 0.5), "in (0, 0.5)")),
}

_TRAIN_KEYS = {
    "data": (str, None, None),
    "arch": (str, "wh", _one_of("wh", "pwh", "fir")),
    "loss": (str, "pem", _one_of("pem", "quantized", "mse")),
    "lr": (float, 1e-3, _POSITIVE),
    "iterations": (int, 1000, _at_least(0)),
    "seed": (int, 0, _at_least(0)),
    "out": (str, None, None),
    "n_b": (int, 0, _at_least(0)),  # 0: the architecture's default order
    "n_a": (int, 0, _at_least(0)),  # 0: the architecture's default order
    "hidden": (int, 10, _at_least(1)),
    "fir_taps": (int, 20, _at_least(1)),
    "noise_n_b": (int, 2, _at_least(0)),
    "noise_n_a": (int, 2, _at_least(0)),
    "quantizer": (str, "", None),
    "init_sigma": (float, 0.1, _POSITIVE),
    "test_data": (str, "", None),
    "plateau_patience": (int, 0, _at_least(0)),  # 0: no plateau stop
    "plateau_rtol": (float, 1e-5, _at_least(0)),
    "log_every": (int, 0, _at_least(0)),  # 0: no progress lines
}

_EVAL_KEYS = {
    "model": (str, None, None),
    "data": (str, None, None),
    "report": (str, "", None),
    "bode": (str, "", None),
    "truth": (str, "", None),
}

_GRADCHECK_KEYS = {
    "seed": (int, 0, _at_least(0)),
}


def _add_config_args(parser, keys):
    parser.add_argument("--config", default=None, help="JSON config file")
    for name, (typ, _default, _domain) in keys.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None)


def _resolve_config(args, keys):
    """Merge defaults, config file and explicit flags; reject unknown keys and
    values outside their setting's domain."""
    values = {name: default for name, (_t, default, _d) in keys.items()}
    if args.config:
        try:
            doc = fileio.read_json(args.config)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad config file: {exc}")
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(doc) - set(keys)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for name, value in doc.items():
            typ = keys[name][0]
            try:
                # int() would truncate 2.7 silently; only integral floats pass
                if typ is int and isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                values[name] = typ(value)
            except (TypeError, ValueError):
                raise UsageError(f"config key {name}: {value!r} is not a valid {typ.__name__}")
    for name in keys:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
    missing = [name for name, v in values.items() if v is None]
    if missing:
        raise UsageError(f"missing required settings: {missing}")
    for name, (typ, _default, domain) in keys.items():
        value = values[name]
        if typ is float and not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
        if domain is not None and not domain[0](value):
            raise UsageError(f"{name} must be {domain[1]}, got {value!r}")
    return values


# ---------------------------------------------------------------- generate


def cmd_generate(cfg):
    kind = cfg["kind"]
    # the dataset is built in memory before the output directory is made, so
    # settings the generator rejects leave nothing behind
    if kind == "wh-colored":
        ds = datagen.generate_wh_colored(cfg["seed"], cfg["T"], cfg["test_T"] or None)
        u_train, train_out = ds.u_train, {"y": ds.y_train}
    else:
        ds = datagen.generate_pwh_quantized(
            cfg["seed"],
            cfg["T"],
            rms_levels=cfg["rms_levels"],
            realizations=cfg["realizations"],
            band=cfg["band"],
            sigma_e=cfg["sigma_e"],
        )
        u_train, train_out = ds.u, {"z": ds.z}
    out = fileio.ensure_dir(cfg["out"])
    fileio.write_dataset(os.path.join(out, "train.csv"), u_train, **train_out)
    fileio.write_dataset(os.path.join(out, "test.csv"), ds.u_test, y=ds.y_test)
    ds.truth.save(os.path.join(out, "truth.json"))
    fileio.write_json(os.path.join(out, "meta.json"), ds.truth.meta)
    if kind == "wh-colored":
        print(f"wrote {out}/train.csv ({ds.u_train.size} rows), test.csv "
              f"({ds.u_test.size} rows), truth.json, meta.json")
        print(f"train y std {ds.y_train.std():.4f}, clean y std "
              f"{ds.y_clean_train.std():.4f}, noise std "
              f"{(ds.y_train - ds.y_clean_train).std():.4f}")
    else:
        counts = np.bincount(ds.z.ravel(), minlength=ds.quantizer.n_bins)
        print(f"wrote {out}/train.csv ({ds.u.shape[0]} sequences x {ds.u.shape[1]} "
              f"samples), test.csv, truth.json, meta.json")
        print(f"bin occupancy: {counts.tolist()}")
    return 0


# ------------------------------------------------------------------- train


def _build_model(cfg, rng):
    arch = cfg["arch"]
    n_b, n_a, hidden = cfg["n_b"], cfg["n_a"], cfg["hidden"]
    if arch == "wh":
        return build_wh(n_b or 8, n_a or 8, hidden, rng)
    if arch == "pwh":
        return build_pwh(n_b or 12, n_a or 12, hidden, rng)
    return BlockModel([MimoTransferFunction(1, 1, cfg["fir_taps"] - 1, 0, 0, rng=rng)])


def _bin_edges(cfg, z):
    """Per-sample bin edges of z under the thresholds of the --quantizer file."""
    if not cfg["quantizer"]:
        raise UsageError("quantized loss needs --quantizer (JSON with thresholds)")
    qdoc = fileio.read_json(cfg["quantizer"])
    if not isinstance(qdoc, dict) or "thresholds" not in qdoc:
        raise UsageError("quantizer JSON must contain a thresholds array")
    try:
        qz = Quantizer(np.asarray(qdoc["thresholds"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--quantizer {cfg['quantizer']}: thresholds must be a flat, "
                         f"increasing, finite list of numbers ({exc})")
    try:
        return qz.bin_edges(z)
    except ValueError as exc:
        raise ValueError(f"{cfg['data']}: {exc}") from None


def _check_poles(model):
    """(block, (o, i), radius) of the first `tf` cell with a pole of radius
    >= 1, or None: an unstable filter's output grows without bound, and a
    short series would still give it a (meaningless) finite score."""
    for k, block in enumerate(model.blocks):
        if block.kind != "tf":
            continue
        for o in range(block.out_channels):
            for i in range(block.in_channels):
                den = block.cell(o, i).full_denominator()
                radius = np.max(np.abs(np.roots(den)), initial=0.0)
                if radius >= 1.0:
                    return k, (o, i), float(radius)
    return None


def _pole_failure(unstable):
    k, (o, i), radius = unstable
    return FloatingPointError(f"block {k} (tf) cell ({o}, {i}) has a pole "
                              f"of radius {radius:.6g} >= 1")


def _fit(model_file, u, y):
    """Fit index and RMSE of the open-loop simulation of (batch, T) input u against y.

    A model with more than one output raises ValueError; a non-finite score
    raises FloatingPointError naming it.
    """
    y_sim = model_file.simulate(u[:, :, np.newaxis])
    if y_sim.shape[2] != 1:
        raise ValueError(f"width mismatch: the model gives {y_sim.shape[2]} output "
                         f"channels, the data has 1")
    y_sim = y_sim[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        scores = fit_index(y, y_sim), rmse(y, y_sim)
    for name, value in zip(("fit index", "rmse"), scores):
        if not math.isfinite(value):
            raise FloatingPointError(f"the simulated output gives a non-finite {name} ({value})")
    return scores


def _check_normalizes(norm, path, u):
    """Raise ValueError naming the file when norm overflows on its (batch, T) input u."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(norm.normalize_u(u[:, :, np.newaxis])).all()
    if not finite:
        raise ValueError(f"{path}: u column overflows the model's input normalization")


def _require_spread(path, y):
    """require_spread on a dataset's y column, naming the file."""
    try:
        require_spread(y)
    except ValueError as exc:
        raise ValueError(f"{path}: y column: {exc}") from None


def cmd_train(cfg):
    u, out_col, kind = fileio.read_dataset(cfg["data"])
    loss_kind = cfg["loss"]
    need = "z" if loss_kind == "quantized" else "y"
    if kind != need:
        raise UsageError(f"{loss_kind} loss needs a dataset with a {need} column")
    # the fit index scores y, so a constant y is refused before any training
    if kind == "y":
        _require_spread(cfg["data"], out_col)
    u3 = u[:, :, np.newaxis]
    y3 = out_col[:, :, np.newaxis] if kind == "y" else None
    norm = Normalization.from_data(u3, y3)
    if cfg["test_data"]:  # checked before training, so a bad file costs no run
        u_test, y_test, kind_test = fileio.read_dataset(cfg["test_data"])
        if kind_test != "y":
            raise UsageError("test data must contain a y column")
        _require_spread(cfg["test_data"], y_test)
        _check_normalizes(norm, cfg["test_data"], u_test)

    u_n = norm.normalize_u(u3)
    y_n = norm.normalize_y(y3) if y3 is not None else None
    model = _build_model(cfg, np.random.default_rng(cfg["seed"]))
    params = [p for _, p in model.parameters()]
    pm = None
    log_sigma = None
    if loss_kind == "pem":
        pm = PemModel(model, cfg["noise_n_b"], cfg["noise_n_a"])
        params += [pm.noise_b, pm.noise_a]
    if loss_kind == "quantized":
        lo, hi = _bin_edges(cfg, out_col)
        log_sigma = Parameter(np.log(cfg["init_sigma"]), "noise.log_sigma_e")
        params.append(log_sigma)
    diagnostics = LoglikDiagnostics()

    def build_loss():
        tape = Tape()
        if loss_kind == "pem":
            return tape, pm.pem_loss_node(tape, u_n, y_n)
        out_node = model.apply(tape, tape.constant(u_n))
        if loss_kind == "mse":
            return tape, mse_loss_node(tape, out_node, y_n)
        return tape, quantized_loglik_node(tape, out_node, lo, hi, log_sigma, diagnostics)

    tc = TrainConfig(
        iterations=cfg["iterations"],
        lr=cfg["lr"],
        plateau_patience=cfg["plateau_patience"],
        plateau_rtol=cfg["plateau_rtol"],
        log_every=cfg["log_every"],
    )
    t_start = time.perf_counter()
    try:
        result = train(params, build_loss, tc)
    except TrainingDivergedError as exc:
        # main reports the failure; the events say when and where it diverged
        out = fileio.ensure_dir(cfg["out"])
        fileio.write_jsonl(os.path.join(out, "events.jsonl"), exc.events)
        raise
    wall = time.perf_counter() - t_start

    out = fileio.ensure_dir(cfg["out"])
    # eval refuses a model with an unstable cell, so train does not write one
    unstable = _check_poles(model)
    if unstable is not None:
        k, cell, radius = unstable
        fileio.write_jsonl(os.path.join(out, "events.jsonl"), result.events + [
            {"event": "unstable_pole", "block": k, "cell": list(cell), "radius": radius}])
        raise _pole_failure(unstable)
    noise_filter = pm.h_check() if pm is not None else None
    model_file = ModelFile(
        model,
        normalization=norm,
        noise_filter=noise_filter,
        log_sigma_e=float(log_sigma.value) if log_sigma is not None else None,
        meta={
            "loss": loss_kind,
            "arch": cfg["arch"],
            "seed": cfg["seed"],
            "lr": cfg["lr"],
            "iterations_run": int(result.iterations_run),
        },
    )
    model_path = os.path.join(out, "model.json")
    model_file.save(model_path)

    fileio.write_csv(
        os.path.join(out, "trace.csv"),
        ["iteration", "loss", "wall_time_s"],
        [
            np.arange(result.loss_trace.size),
            result.loss_trace,
            result.wall_times,
        ],
    )

    fileio.write_jsonl(os.path.join(out, "events.jsonl"), result.events)

    report = {
        "version": 2,
        # results vary at round-off with the BLAS thread count
        "blas_threads": (os.environ.get("OPENBLAS_NUM_THREADS")
                         or os.environ.get("OMP_NUM_THREADS")),
        "cpus": len(os.sched_getaffinity(0)),
        "loss": loss_kind,
        "arch": cfg["arch"],
        "seed": cfg["seed"],
        "lr": cfg["lr"],
        "lr_final": result.lr_final,
        "iterations": int(result.iterations_run),
        "stopped_on_plateau": bool(result.stopped_on_plateau),
        "final_loss": float(result.loss_trace[-1]) if result.loss_trace.size else None,
        "best_loss": result.best_loss if result.loss_trace.size else None,
        "divergence_restores": int(result.divergence_restores),
        "skipped_steps": int(result.skipped_steps),
        "best_iteration": int(result.best_iteration),
        "clamped_total": diagnostics.clamped,
        "wall_time_s": wall,
    }
    if y3 is not None:
        report["train_fit_percent"], report["train_rmse"] = _fit(model_file, u, out_col)
    if log_sigma is not None:
        report["sigma_e"] = float(np.exp(log_sigma.value))
    if cfg["test_data"]:
        report["test_fit_percent"], report["test_rmse"] = _fit(model_file, u_test, y_test)
    fileio.write_json(os.path.join(out, "report.json"), report)

    best = "none" if report["best_loss"] is None else f"{report['best_loss']:.6g}"
    print(f"trained {cfg['arch']} with {loss_kind} loss: "
          f"{result.iterations_run} iterations, best loss {best}, wall {wall:.1f}s")
    for key in ("train_fit_percent", "test_fit_percent", "sigma_e"):
        if key in report:
            print(f"{key}: {report[key]:.4g}")
    print(f"wrote {model_path}, trace.csv, events.jsonl, report.json")
    return 0


# -------------------------------------------------------------------- eval


def cmd_eval(cfg):
    model_file = ModelFile.load(cfg["model"])
    u, y, kind = fileio.read_dataset(cfg["data"])
    if kind != "y":
        raise UsageError("eval needs a dataset with a real-valued y column")
    _require_spread(cfg["data"], y)
    unstable = _check_poles(model_file.model)
    if unstable is not None:
        raise _pole_failure(unstable)
    if model_file.normalization is not None:
        _check_normalizes(model_file.normalization, cfg["data"], u)
    fit, err = _fit(model_file, u, y)
    print(f"fit: {fit:.4f} %")
    print(f"rmse: {err:.6g}")
    report = {"version": 1, "fit_percent": fit, "rmse": err}
    if cfg["report"]:
        fileio.write_json(cfg["report"], report)
    if cfg["bode"]:
        if model_file.noise_filter is None:
            raise UsageError("model has no noise filter to export")
        h_est = invert_monic_noise_filter(model_file.noise_filter)
        true_h = None
        if cfg["truth"]:
            truth = ModelFile.load(cfg["truth"])
            true_h = truth.noise_filter
        freqs = np.geomspace(1e-3, 0.49, 300)
        header, table = bode_magnitude_table(h_est, freqs, true_h)
        fileio.write_csv(cfg["bode"], header, [table[:, k] for k in range(table.shape[1])])
        print(f"wrote {cfg['bode']}")
    return 0


# --------------------------------------------------------------- gradcheck


def cmd_gradcheck(cfg):
    rows = gradcheck.run_all(seed=cfg["seed"])
    width = max(len(r.name) for r in rows)
    failed = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_rel_err={r.max_rel_err:.3e}  "
              f"tol={r.tol:.0e}  {status}")
        failed += 0 if r.passed else 1
    if failed:
        print(f"{failed} gradient check(s) failed")
        return 2
    print("all gradient checks passed")
    return 0


# -------------------------------------------------------------------- main


_DISPATCH = {
    "generate": (cmd_generate, _GENERATE_KEYS),
    "train": (cmd_train, _TRAIN_KEYS),
    "eval": (cmd_eval, _EVAL_KEYS),
    "gradcheck": (cmd_gradcheck, _GRADCHECK_KEYS),
}


def build_parser():
    parser = _Parser(prog="difftf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, keys) in _DISPATCH.items():
        _add_config_args(sub.add_parser(name), keys)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler, keys = _DISPATCH[args.command]
        cfg = _resolve_config(args, keys)
        return handler(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, FilterDivergenceError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
