"""Acceptance gates. Each test prints one PASS/FAIL line with its headline
numbers; the two training criteria run the full CLI pipelines on synthetic
data and take several minutes each."""

import contextlib
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import difftf
from difftf.blocks import ModelFile, build_wh
from difftf.cli import main as cli_main
from difftf.datagen import generate_pwh_quantized
from difftf.fileio import read_dataset, read_json
from difftf.gradcheck import central_difference, filter_op_gradients, relative_errors
from difftf.metrics import autocorrelation, fit_index
from difftf.optim import TrainConfig, train
from difftf.pem import (
    PemModel,
    estimated_noise_filter,
    inverse_noise_impulse_response,
    magnitude_response_db,
    one_step_predictor,
    prediction_error,
)
from difftf.quantized import Quantizer, bin_probabilities, quantize, quantized_loglik_terms
from difftf.tape import Tape
from difftf.tf_core import (
    TransferFunction,
    convolve_truncated,
    filter_forward,
    impulse_response,
    random_stable_tf,
)
from difftf.tf_grad import grad_u_rows


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gradient_suite():
    """>= 200 random stable filters: the filter op's b/a/u gradients vs central FD."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_cases = 210
    for _ in range(n_cases):
        T = int(rng.choice((8, 32, 128)))
        n_b = int(rng.integers(0, min(8, T - 1) + 1))
        n_a = int(rng.integers(0, min(8, T - 1) + 1))
        tf = random_stable_tf(rng, n_b, n_a, int(rng.integers(0, 2)), max_radius=0.9)
        u = rng.normal(0.0, 1.0, T)
        w = rng.normal(0.0, 1.0, T)
        b_bar, a_bar, u_bar = filter_op_gradients(tf, u, w)

        def loss_b(b):
            return float(np.dot(w, filter_forward(TransferFunction(b, tf.a, tf.n_k), u)))

        worst = max(worst, relative_errors(b_bar, central_difference(loss_b, tf.b)).max())

        if n_a:
            def loss_a(a):
                return float(
                    np.dot(w, filter_forward(TransferFunction(tf.b, a, tf.n_k), u))
                )

            worst = max(
                worst, relative_errors(a_bar, central_difference(loss_a, tf.a)).max()
            )

        def loss_u(uu):
            return float(np.dot(w, filter_forward(tf, uu)))

        worst = max(worst, relative_errors(u_bar, central_difference(loss_u, u)).max())

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    report(1, ok, f"{n_cases} filters, max rel err {worst:.2e} (tol 1e-5), "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_2_flip_trick_oracle():
    """Reverse-time filtering equals the explicit quadratic cross-correlation."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(4, 257))
        tf = random_stable_tf(
            rng, int(rng.integers(0, 9)), int(rng.integers(0, 9)), int(rng.integers(0, 3))
        )
        w = rng.normal(0.0, 1.0, T)
        fast = grad_u_rows(tf, w[np.newaxis, :])[0]
        g = impulse_response(tf, T)
        direct = np.array([np.dot(w[tau:], g[: T - tau]) for tau in range(T)])
        scale = max(1e-30, np.abs(direct).max())
        worst = max(worst, np.abs(fast - direct).max() / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10
    report(2, ok, f"100 cases T<=256, max rel err {worst:.2e} (tol 1e-10), "
                  f"{elapsed:.1f}s")


def test_criterion_3_convolution_oracle():
    """filter_forward equals truncated-impulse-response convolution."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(4, 257))
        tf = random_stable_tf(
            rng, int(rng.integers(0, 9)), int(rng.integers(0, 9)), int(rng.integers(0, 3))
        )
        u = rng.normal(0.0, 1.0, T)
        y = filter_forward(tf, u)
        y_conv = convolve_truncated(impulse_response(tf, T), u)
        scale = max(1e-30, np.abs(y).max())
        worst = max(worst, np.abs(y - y_conv).max() / scale)
    ok = worst <= 1e-10
    report(3, ok, f"100 random stable cases, max rel err {worst:.2e} (tol 1e-10)")


def test_criterion_4_likelihood_normalization():
    """Bin probabilities sum to 1; exp(loglik) matches Monte-Carlo frequency."""
    rng = np.random.default_rng(5)
    worst_sum = 0.0
    for _ in range(1000):
        n_bins = int(rng.integers(2, 65))
        lo = float(rng.uniform(-3.0, 0.0))
        hi = float(rng.uniform(0.5, 4.0))
        qz = Quantizer.uniform(n_bins, lo, hi)
        y = rng.uniform(-4.0, 4.0, 4)
        sigma = float(rng.uniform(1e-3, 3.0))
        sums = bin_probabilities(y, sigma, qz).sum(axis=1)
        worst_sum = max(worst_sum, np.abs(sums - 1.0).max())

    qz = Quantizer.uniform(12, -1.0, 1.0)
    n_draws = 1_000_000
    worst_se = 0.0
    for _ in range(20):
        y = float(rng.uniform(-1.2, 1.2))
        sigma = float(rng.uniform(0.03, 0.7))
        z = int(rng.integers(0, 12))
        p = float(np.exp(quantized_loglik_terms(np.array([y]), np.array([z]), sigma, qz)[0]))
        draws = quantize(y + sigma * rng.standard_normal(n_draws), qz)
        freq = float(np.mean(draws == z))
        se = max(np.sqrt(p * (1.0 - p) / n_draws), 1e-9)
        worst_se = max(worst_se, abs(freq - p) / se)

    ok = worst_sum <= 1e-12 and worst_se <= 3.0
    report(4, ok, f"1000 normalization cases (K<=64), max |sum-1| {worst_sum:.2e} "
                  f"(tol 1e-12); 20 Monte-Carlo spots, worst {worst_se:.2f} SEs (<= 3)")


def _wh_pipeline(data, run):
    return [
        ["generate", "--kind", "wh-colored", "--T", "20000", "--test-T", "10000",
         "--seed", "1", "--out", str(data)],
        ["train", "--data", str(data / "train.csv"), "--arch", "wh",
         "--loss", "pem", "--lr", "1e-4", "--iterations", "40000",
         "--plateau-patience", "8000", "--plateau-rtol", "1e-7",
         "--seed", "0", "--out", str(run),
         "--test-data", str(data / "test.csv")],
    ]


def _pwh_pipeline(data, run):
    return [
        ["generate", "--kind", "pwh-quantized", "--T", "4096",
         "--realizations", "4", "--seed", "3", "--out", str(data)],
        ["train", "--data", str(data / "train.csv"), "--arch", "pwh",
         "--loss", "quantized", "--quantizer", str(data / "meta.json"),
         "--lr", "1e-3", "--iterations", "4000", "--plateau-patience", "1200",
         "--seed", "0", "--out", str(run),
         "--test-data", str(data / "test.csv")],
    ]


PIPELINE_TIMEOUT_S = 3600


class Pipeline:
    """generate, then train, as `difftf.cli` subprocesses from a background thread.

    Each subprocess uses one BLAS thread and, given a CPU, is pinned to it,
    so the two pipelines share the cores without oversubscribing them: a
    process allowed one CPU runs its filter-grid cells and static nets on
    one thread (see `blocks.run_branches`).
    """

    def __init__(self, root, argvs, cpu=None):
        self.data, self.run = root / "data", root / "run"
        self.argvs = argvs(self.data, self.run)
        self.cpu = cpu
        self.failure = None
        self.elapsed = None
        self._proc = None
        self._stopped = False
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        src = os.path.dirname(os.path.dirname(difftf.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        t0 = time.perf_counter()
        for argv in self.argvs:
            with self._lock:
                if self._stopped:
                    return
                self._proc = subprocess.Popen(
                    [sys.executable, "-m", "difftf.cli", *argv], env=env,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                if self.cpu is not None:
                    # pinned while the interpreter starts, before any work
                    with contextlib.suppress(ProcessLookupError):
                        os.sched_setaffinity(self._proc.pid, {self.cpu})
            _, err = self._proc.communicate()
            if self._proc.returncode:
                self.failure = (f"`difftf {argv[0]}` exited {self._proc.returncode}; "
                                f"stderr:\n{err}")
                return
        self.elapsed = time.perf_counter() - t0

    def result(self):
        """(data dir, run dir, seconds) once the pipeline is done; fails the test otherwise."""
        self._thread.join(PIPELINE_TIMEOUT_S)
        if self._thread.is_alive():
            pytest.fail(f"pipeline still running after {PIPELINE_TIMEOUT_S} s")
        if self.failure:
            pytest.fail(self.failure)
        return self.data, self.run, self.elapsed

    def stop(self):
        with self._lock:
            self._stopped = True
            if self._proc is not None and self._proc.poll() is None:
                self._proc.kill()
        self._thread.join(PIPELINE_TIMEOUT_S)


PIPELINES = {"wh": _wh_pipeline, "pwh": _pwh_pipeline}


@pytest.fixture(scope="session", autouse=True)
def pipelines(request, tmp_path_factory):
    """The training pipelines, started together as soon as this module runs.

    A pipeline starts only when a selected test reads its results (through
    `wh_run` or `pwh_run`); the rest of the suite runs while they train, and
    each criterion waits on its own pipeline.
    """
    names = [name for name in PIPELINES
             if any(f"{name}_run" in item.fixturenames for item in request.session.items)]
    cpus = sorted(os.sched_getaffinity(0))
    started = {
        name: Pipeline(tmp_path_factory.mktemp(f"{name}_acceptance"), PIPELINES[name],
                       cpus[k % len(cpus)] if len(cpus) > 1 else None)
        for k, name in enumerate(names)
    }
    yield started
    for pipeline in started.values():
        pipeline.stop()


@pytest.fixture(scope="module")
def wh_run(pipelines):
    return pipelines["wh"].result()


@pytest.fixture(scope="module")
def pwh_run(pipelines):
    return pipelines["pwh"].result()


@pytest.mark.slow
class TestCriterion5WhColoredRecovery:
    def test_5a_simulation_fit_on_noiseless_holdout(self, wh_run):
        data, run, elapsed = wh_run
        rep = read_json(run / "report.json")
        fit = rep["test_fit_percent"]
        ok = fit >= 90.0
        report("5a", ok, f"noiseless held-out fit {fit:.2f}% (>= 90%), "
                         f"pipeline {elapsed / 60:.1f} min, "
                         f"{rep['iterations']} iterations")

    def test_5b_noise_filter_magnitude_within_3db(self, wh_run):
        data, run, _ = wh_run
        fitted = ModelFile.load(run / "model.json")
        truth = ModelFile.load(data / "truth.json")
        pm = PemModel(fitted.model, noise_b=fitted.noise_filter.b,
                      noise_a=fitted.noise_filter.a)
        freqs = np.linspace(0.01, 0.3, 150)
        est_db = magnitude_response_db(estimated_noise_filter(pm), freqs)
        true_db = magnitude_response_db(truth.noise_filter, freqs)
        gap = np.abs(est_db - true_db).max()
        report("5b", gap <= 3.0,
               f"noise filter magnitude within {gap:.2f} dB of truth over "
               f"[0.01, 0.3] cycles/sample (<= 3 dB)")

    def test_5c_prediction_residual_whiteness(self, wh_run):
        data, run, _ = wh_run
        fitted = ModelFile.load(run / "model.json")
        pm = PemModel(fitted.model, noise_b=fitted.noise_filter.b,
                      noise_a=fitted.noise_filter.a)
        u, y, _ = read_dataset(data / "train.csv")
        norm = fitted.normalization
        eps = prediction_error(
            pm, norm.normalize_u(u[:, :, None]), norm.normalize_y(y[:, :, None])
        )[0, :, 0]
        rho = autocorrelation(eps, 20)
        bound = 3.0 / np.sqrt(eps.size)
        worst = np.abs(rho).max()
        report("5c", worst <= bound,
               f"residual autocorrelation lags 1..20: max |rho| {worst:.4f} "
               f"(bound {bound:.4f})")

    def test_5d_external_benchmark_soft_gate(self, tmp_path):
        train_csv = os.environ.get("WH_BENCHMARK_TRAIN_CSV")
        test_csv = os.environ.get("WH_BENCHMARK_TEST_CSV")
        if not train_csv:
            pytest.skip("external benchmark CSV not supplied "
                        "(set WH_BENCHMARK_TRAIN_CSV / WH_BENCHMARK_TEST_CSV)")
        run = tmp_path / "bench"
        args = [
            "train", "--data", train_csv, "--arch", "wh", "--loss", "pem",
            "--lr", "1e-4", "--iterations", "40000",
            "--plateau-patience", "8000", "--plateau-rtol", "1e-7",
            "--seed", "0", "--out", str(run),
        ]
        if test_csv:
            args += ["--test-data", test_csv]
        assert cli_main(args) == 0
        rep = read_json(run / "report.json")
        fit = rep.get("test_fit_percent", rep.get("train_fit_percent"))
        # soft regression gate: report, do not fail the suite
        print(f"\nACCEPTANCE 5 (external benchmark, soft): fit {fit:.2f}% "
              f"{'(>= 90 ok)' if fit >= 90 else '(below 90, investigate)'}")


@pytest.mark.slow
class TestCriterion6PwhQuantizedRecovery:
    def test_6a_latent_fit_on_heldout_multisine(self, pwh_run):
        data, run, elapsed = pwh_run
        rep = read_json(run / "report.json")
        fit = rep["test_fit_percent"]
        ok = fit >= 85.0
        report("6a", ok, f"noiseless latent fit {fit:.2f}% on held-out multisine "
                         f"(>= 85%), pipeline {elapsed / 60:.1f} min, "
                         f"{rep['iterations']} iterations")

    def test_6b_noise_scale_recovered(self, pwh_run):
        data, run, _ = pwh_run
        rep = read_json(run / "report.json")
        truth = read_json(data / "truth.json")
        sigma_true = float(np.exp(truth["log_sigma_e"]))
        sigma_hat = rep["sigma_e"]
        rel = abs(sigma_hat - sigma_true) / sigma_true
        report("6b", rel <= 0.25,
               f"sigma_e estimate {sigma_hat:.4f} vs truth {sigma_true:.4f} "
               f"({100 * rel:.1f}% error, <= 25%)")


def test_criterion_7_identity_invariants(rng):
    """Predictor identity, monic inverse noise filter, quantizer edge rule."""
    model = build_wh(n_b=3, n_a=3, hidden=4, rng=rng)
    pm = PemModel(model)
    pm.noise_b.value[:] = rng.normal(0.0, 0.3, pm.noise_b.value.shape)
    pm.noise_a.value[:] = rng.normal(0.0, 0.3, pm.noise_a.value.shape)
    u = rng.normal(0.0, 1.0, (1, 200, 1))
    y = rng.normal(0.0, 1.0, (1, 200, 1))
    yhat = one_step_predictor(pm, u, y)
    eps = prediction_error(pm, u, y)
    identity_err = np.abs(yhat + eps - y).max()
    identity_ok = identity_err <= 2e-16 * np.abs(y).max()

    leads = [
        inverse_noise_impulse_response(pm, 32)[0] == 1.0
        for _ in range(1)
    ]
    monic_ok = all(leads)

    qz = Quantizer.uniform(12, -1.0, 1.0)
    edges_ok = all(
        int(quantize(np.array([qz.thresholds[m + 1]]), qz)[0]) == m
        for m in range(11)
    )

    ok = identity_ok and monic_ok and edges_ok
    report(7, ok, f"yhat + eps = y to {identity_err:.1e} (machine precision); "
                  f"inverse noise filter leads with exactly 1: {monic_ok}; "
                  f"quantizer right-edge rule: {edges_ok}")


def test_criterion_8_least_squares_sanity(rng):
    """20-tap FIR + Adam on MSE reaches the normal-equations solution."""
    taps = 20
    T = 2000
    u = rng.normal(0.0, 1.0, T)
    true_tf = random_stable_tf(rng, 6, 4, 0)
    y = filter_forward(true_tf, u) + 0.05 * rng.normal(0.0, 1.0, T)

    X = np.zeros((T, taps))
    for j in range(taps):
        X[j:, j] = u[: T - j]
    theta_star = np.linalg.solve(X.T @ X, X.T @ y)

    from difftf.blocks import BlockModel, MimoTransferFunction

    model = BlockModel([
        MimoTransferFunction(1, 1, taps - 1, 0, 0, rng=np.random.default_rng(0))
    ])
    params = [p for _, p in model.parameters()]
    u3 = u[np.newaxis, :, np.newaxis]
    y3 = y[np.newaxis, :, np.newaxis]

    def build_loss():
        tape = Tape()
        out = model.apply(tape, tape.constant(u3))
        err = tape.sub(tape.constant(y3), out)
        return tape, tape.mean(tape.square(err))

    train(params, build_loss,
          TrainConfig(iterations=12000, lr=1e-2, plateau_patience=2500,
                      plateau_rtol=1e-10))
    fitted = model.blocks[0].b.value[0, 0]
    rel = np.abs(fitted - theta_star).max() / np.abs(theta_star).max()
    report(8, rel <= 1e-3,
           f"20-tap FIR vs normal equations: max relative parameter error "
           f"{rel:.2e} (<= 1e-3)")
