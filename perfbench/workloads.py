"""The three benchmark workloads, driven through difftf's public entry points.

Every workload is a closed loop with one client in one process: the next step
starts when the previous one returns. Inputs come only from the workload seed,
which is passed to `difftf generate` (data) and `difftf train` (model init).

- wh_pem: `difftf train --arch wh --loss pem` on one 20000-sample row.
- pwh_quantized: `difftf train --arch pwh --loss quantized` on 20 x 4096 rows.
- pwh_simulate: `ModelFile.simulate` of a PWH model read back from model.json,
  over the 10 x 4096 held-out inputs.

The training workloads run the real CLI `train` command; its call into
`optim.train` is intercepted, and the interceptor runs repeated fixed-length
training episodes from the same initial parameters through the real
`optim.train` until the time budget is spent. A step is one iteration
(forward, backward, Adam); its time is the difference of consecutive entries
of `TrainResult.wall_times`, so untraced runs wrap none of difftf's code.

On a shared host the speed drifts with the load of other tenants (by 40 % and
more over seconds to minutes on two vCPUs of a Xeon host), so untraced windows also time a fixed reference kernel
that does not call difftf, right before every step: inside the loss function
handed to `optim.train`, with its time taken out of the step's interval, or
before each `simulate` call. The run's total step time over its total
reference time, times REFERENCE_MS, gives `norm_step_ms_mean`: the mean step
time on a machine where the reference kernel takes 1 ms. Both totals
integrate the host's speed over the same moments, so a change in that speed
cancels and a change to difftf shows in full. Ratios of percentiles do not
cancel it, since speed changes move the two distributions by different
shapes, nor do bursts of reference calls between episodes, which run with
warm caches and sample the speed too coarsely.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import gc
import os
from time import perf_counter

import numpy as np
from scipy.signal import lfilter

from difftf import cli, fileio, gradcheck, optim
from difftf.blocks import ModelFile
from difftf.tape import Tape

import tracing

WARMUP_STEPS = 3
SIMULATE_REL_TOL = 1e-10
REFERENCE_MS = 1.0


class ReferenceKernel:
    """Fixed work in the same mix as a step: an IIR filter over rows, a tanh
    layer on a 0.6 MB array and a Python loop of small numpy calls.

    Its inputs are fixed, not seeded by the workload, and it calls no difftf
    code, so its time tracks only the speed of the host.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((4, 4096))
        self.hidden = rng.standard_normal((8192, 10))
        self.weight = rng.standard_normal((10, 10))
        self.v = rng.standard_normal(8)

    def __call__(self):
        """Run the kernel once; returns its wall time in seconds."""
        t0 = perf_counter()
        lfilter([1.0, 0.5, 0.2], [1.0, -0.5, 0.1], self.rows, axis=1)
        np.tanh(self.hidden @ self.weight).sum(axis=0)
        s = self.v
        for _ in range(150):
            s = np.tanh(0.5 * s + self.v)
        return perf_counter() - t0


class BenchmarkError(RuntimeError):
    """A CLI step of the benchmark exited with a non-zero code."""


class _SetupOnly(Exception):
    """Raised from the train interceptor to end a set-up-only repetition."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    generate_args: tuple
    train_args: tuple
    episode_steps: int   # iterations per training episode (fixes final_loss)
    rows: int            # batch x T of one step = rows * T samples
    T: int
    hidden_nets: int     # tanh nets whose (rows * T, hidden) array a step touches
    setup_repeats: int   # untraced set-ups per run; setup_s is their median
    ref_calls: int       # reference kernel calls before each untraced step
    hidden: int = 10
    simulate: bool = False

    @property
    def samples_per_step(self):
        return self.rows * self.T

    @property
    def hidden_bytes(self):
        """Working set of one net's hidden activation array, in bytes."""
        return self.rows * self.T * self.hidden * 8


WORKLOADS = {
    "wh_pem": Workload(
        "wh_pem", "wh-colored", ("--T", "20000", "--test-T", "10000"),
        ("--arch", "wh", "--loss", "pem", "--lr", "1e-4"),
        episode_steps=100, rows=1, T=20000, hidden_nets=1, setup_repeats=21,
        ref_calls=1,
    ),
    "pwh_quantized": Workload(
        "pwh_quantized", "pwh-quantized", ("--T", "4096", "--realizations", "4"),
        ("--arch", "pwh", "--loss", "quantized", "--lr", "1e-3"),
        episode_steps=10, rows=20, T=4096, hidden_nets=2, setup_repeats=3,
        ref_calls=5,
    ),
    "pwh_simulate": Workload(
        "pwh_simulate", "pwh-quantized", ("--T", "4096", "--realizations", "4"),
        ("--arch", "pwh", "--loss", "quantized", "--lr", "1e-3"),
        episode_steps=1, rows=10, T=4096, hidden_nets=2, setup_repeats=3,
        ref_calls=1, simulate=True,
    ),
}


def release_memory():
    """Collect garbage and hand freed heap pages back to the OS (glibc only).

    Without the trim, how much of one set-up's heap stays resident varies from
    run to run, and the next set-up's peak stacks on it: peak RSS of the
    pwh_simulate set-ups ranged 188-219 MB on one seed.
    """
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


@contextlib.contextmanager
def intercept_train(handler):
    """Route the CLI's call into optim.train to handler for the duration."""
    previous = cli.train
    cli.train = handler
    try:
        yield
    finally:
        cli.train = previous


def _cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise BenchmarkError(f"difftf {' '.join(argv)} exited with {code}")


def directional_gradient_check(params, build_loss, rng):
    """Analytic directional derivative against gradcheck's central difference.

    Returns (passed, relative error) at gradcheck.GRAD_TOL, along one random
    unit direction over all parameters. Parameter values are left unchanged.
    """
    saved = [p.value.copy() for p in params]
    direction = [rng.standard_normal(p.value.shape) for p in params]
    scale = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / scale for d in direction]
    tape, loss = build_loss()
    for p in params:
        p.grad = np.zeros_like(p.value)
    tape.backward(loss)
    analytic = sum(float(np.sum(p.grad * d)) for p, d in zip(params, direction))

    def along(t):
        for p, v, d in zip(params, saved, direction):
            p.value = v + float(t[0]) * d
        return float(build_loss()[1].value)

    try:
        fd = gradcheck.central_difference(along, np.zeros(1))
    finally:
        for p, v in zip(params, saved):
            p.value = v.copy()
    err = float(gradcheck.relative_errors([analytic], fd).max())
    return bool(err <= gradcheck.GRAD_TOL), err


@dataclasses.dataclass
class Phase:
    """Step times, reference kernel times and outcomes of one measured window."""

    step_s: list = dataclasses.field(default_factory=list)
    ref_s: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def p(self, q):
        """Percentile q of the step times, in ms."""
        return float(np.percentile(self.step_s, q)) * 1e3

    @property
    def ref_ms(self):
        """Mean reference kernel time, in ms."""
        return float(np.mean(self.ref_s)) * 1e3

    @property
    def norm_ms(self):
        """Mean step time at reference speed, in ms."""
        return float(np.mean(self.step_s)) * 1e3 * REFERENCE_MS / self.ref_ms


class Run:
    """One workload run: set-up repetitions, checks, the measured windows."""

    def __init__(self, workload, seed, seconds, trace, work_dir):
        self.w = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.data = os.path.join(work_dir, "data")
        self.out = os.path.join(work_dir, "run")
        self.repeats = 1 if self.trace else workload.setup_repeats
        self.setup_s = []
        self.checks = {}          # name -> (passed, detail)
        self.untraced = Phase()
        self.traced = Phase()
        self.final_loss = 0.0
        self.restores = 0
        self.skipped = 0
        self.tracer = tracing.Tracer() if self.trace else None
        self.reference = ReferenceKernel()
        self.installation = None
        self.setup_layers = {}
        self.step_layers = {}

    # ---- tracing --------------------------------------------------------

    def _install(self):
        if self.tracer is not None and self.installation is None:
            self.installation = tracing.install(self.tracer)

    def _uninstall(self):
        if self.installation is not None:
            self.installation.uninstall()
            self.installation = None

    def _end_setup(self, t0):
        self.setup_s.append(perf_counter() - t0)
        if self.tracer is not None and not self.setup_layers:
            tr = self.tracer
            self.setup_layers = {
                "datagen.generate_s": tr.inclusive["datagen.generate"],
                "fileio.read_dataset_s": tr.inclusive["fileio.read_dataset"],
                "fileio.write_s": tr.inclusive["fileio.write"],
                "cli.build_s": tr.inclusive["cli.build"],
            }
        self._uninstall()

    def _window(self, phase, traced, step_fn):
        """Run step_fn until this window's share of the time budget is spent."""
        budget = self.seconds / 2 if self.trace else self.seconds
        if traced:
            self._install()
            self.tracer.reset()
            self.tracer.phase = "steps"
            missing = tracing.unwrapped_references(self.installation.originals)
            self.checks["wrapping_complete"] = (not missing, ", ".join(missing) or "all rebound")
        else:
            for _ in range(WARMUP_STEPS):
                self.reference()
        t0 = perf_counter()
        try:
            while True:
                step_fn(phase, traced)
                if perf_counter() - t0 >= budget:
                    break
        finally:
            if traced:
                self.step_layers = self._layer_totals()
                self._uninstall()

    def _reference_calls(self, phase):
        """Run the reference kernel before one step; returns the seconds spent."""
        times = [self.reference() for _ in range(self.w.ref_calls)]
        phase.ref_s.extend(times)
        return sum(times)

    def _layer_totals(self):
        tr = self.tracer
        return {
            "calls": dict(tr.calls),
            "inclusive": dict(tr.inclusive),
            "self": dict(tr.self_time),
            "counts": dict(tr.counts),
        }

    # ---- workloads ------------------------------------------------------

    def execute(self):
        try:
            if self.w.simulate:
                self._simulate_workload()
            else:
                self._training_workload()
        finally:
            self._uninstall()

    def _generate(self):
        _cli(["generate", "--kind", self.w.kind, *self.w.generate_args,
              "--seed", str(self.seed), "--out", self.data])

    def _train_argv(self, iterations):
        argv = ["train", "--data", os.path.join(self.data, "train.csv"),
                *self.w.train_args, "--iterations", str(iterations),
                "--seed", str(self.seed), "--out", self.out]
        if self.w.kind == "pwh-quantized":
            argv += ["--quantizer", os.path.join(self.data, "meta.json")]
        return argv

    def _training_workload(self):
        for _ in range(self.repeats):
            release_memory()
            self._install()
            t0 = perf_counter()

            def handler(params, build_loss, config, t0=t0):
                self._end_setup(t0)
                if len(self.setup_s) < self.repeats:
                    raise _SetupOnly
                return self._measure_training(list(params), build_loss, config)

            with intercept_train(handler):
                self._generate()
                try:
                    _cli(self._train_argv(self.w.episode_steps))
                except _SetupOnly:
                    pass

    def _measure_training(self, params, build_loss, config):
        init = [p.value.copy() for p in params]
        ok, err = directional_gradient_check(params, build_loss, np.random.default_rng(self.seed))
        self.checks["gradient_first_step"] = (ok, f"directional rel err {err:.2e}")
        reference = []
        last = []

        def episode(steps, traced, phase=None):
            """One training episode; returns its result and its wall times
            with the reference kernel's time taken out."""
            for p, v in zip(params, init):
                p.value = v.copy()
            loss_fn = build_loss
            spent = []  # reference seconds run before each recorded wall time
            if traced:
                tr = self.tracer

                def loss_fn():
                    tr.fwd_mark = perf_counter()
                    return tr.call("optim.forward", build_loss, (), {})
            elif phase is not None:
                total = [0.0]

                def loss_fn():
                    total[0] += self._reference_calls(phase)
                    out = build_loss()
                    spent.append(total[0])
                    return out

            cfg = dataclasses.replace(config, iterations=steps, plateau_patience=0, log_every=0)
            result = optim.train(params, loss_fn, cfg)
            last[:] = [result]
            walls = np.asarray(result.wall_times)
            # a divergence restore leaves a call without a wall time; such a
            # run fails its checks, and its step times keep the reference time
            if len(spent) == len(walls):
                walls = walls - np.asarray(spent)
            return result, walls

        def step(phase, traced):
            result, walls = episode(self.w.episode_steps, traced, phase)
            trace = result.loss_trace
            if not reference:
                reference.append(trace.copy())
            attempted = result.iterations_run + result.divergence_restores
            if trace.shape == reference[0].shape:
                bad = int(np.count_nonzero((trace != reference[0]) | ~np.isfinite(trace)))
            else:
                bad = attempted
            self.restores += result.divergence_restores
            self.skipped += result.skipped_steps
            phase.attempted += attempted
            phase.failed += min(attempted, bad + result.divergence_restores + result.skipped_steps)
            phase.step_s.extend(np.diff(walls).tolist())

        episode(WARMUP_STEPS, False)
        self._window(self.untraced, False, step)
        if self.trace:
            self._window(self.traced, True, step)
        self.final_loss = float(reference[0][-1])
        self.checks["loss_finite_and_repeatable"] = (
            self.untraced.failed + self.traced.failed == 0,
            f"final loss {self.final_loss!r} after {self.w.episode_steps} steps",
        )
        return last[0]

    def _simulate_workload(self):
        for _ in range(self.repeats):
            release_memory()
            self._install()
            t0 = perf_counter()
            self._generate()
            _cli(self._train_argv(1))
            model_file = ModelFile.load(os.path.join(self.out, "model.json"))
            u, _y, _kind = fileio.read_dataset(os.path.join(self.data, "test.csv"))
            u3 = u[:, :, np.newaxis]
            self._end_setup(t0)

        norm = model_file.normalization
        tape = Tape()
        on_tape = norm.denormalize_y(model_file.model.apply(tape, tape.constant(norm.normalize_u(u3))).value)
        first = model_file.simulate(u3)
        rel = float(np.max(np.abs(first - on_tape)) / np.max(np.abs(on_tape)))
        self.checks["simulate_matches_tape"] = (rel <= SIMULATE_REL_TOL, f"max rel diff {rel:.2e}")

        def step(phase, traced):
            if not traced:
                self._reference_calls(phase)
            t0 = perf_counter()
            out = model_file.simulate(u3)
            phase.step_s.append(perf_counter() - t0)
            phase.attempted += 1
            if not np.array_equal(out, first):
                phase.failed += 1

        for _ in range(WARMUP_STEPS):
            model_file.simulate(u3)
        self._window(self.untraced, False, step)
        if self.trace:
            self._window(self.traced, True, step)
        self.checks["simulate_repeatable"] = (
            self.untraced.failed + self.traced.failed == 0,
            f"{self.untraced.attempted + self.traced.attempted} calls equal to the first",
        )

    # ---- results --------------------------------------------------------

    @property
    def attempted(self):
        return self.untraced.attempted + self.traced.attempted

    @property
    def failed(self):
        failed_checks = sum(1 for ok, _ in self.checks.values() if not ok)
        return min(self.attempted, self.untraced.failed + self.traced.failed + failed_checks)

    @property
    def correct(self):
        return self.failed == 0 and all(ok for ok, _ in self.checks.values())

    def end_to_end(self, peak_rss_mb):
        ph = self.untraced
        return {
            "setup_s": (float(np.median(self.setup_s)), "s"),
            "norm_step_ms_mean": (ph.norm_ms, "ms"),
            "norm_samples_per_s": (self.w.samples_per_step / (ph.norm_ms * 1e-3), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def raw(self):
        """Wall-time step metrics as measured, and the reference kernel time."""
        ph = self.untraced
        return {
            "step_ms_p50": (ph.p(50), "ms"),
            "step_ms_p90": (ph.p(90), "ms"),
            "step_ms_mean": (float(np.mean(ph.step_s)) * 1e3, "ms"),
            "samples_per_s": (self.w.samples_per_step / (ph.p(50) * 1e-3), "1/s"),
            "reference_ms": (ph.ref_ms, "ms"),
        }

    def per_layer(self):
        steps = self.traced.attempted
        layers = self.step_layers
        calls, incl, own, counts = (layers.get(k, {}) for k in ("calls", "inclusive", "self", "counts"))

        def ms(table, name):
            return 1e3 * table.get(name, 0.0) / steps

        out = {}
        for name in ("tf_core.lfilter", "tf_core.filter_rows") + tuple(
            f"tf_grad.{fn}" for fn in
            ("sens_b0_rows", "sens_a1_rows", "grad_u_rows", "grad_b_rows", "grad_a_rows")
        ):
            out[f"{name}.calls_per_step"] = (calls.get(name, 0) / steps, "count")
            out[f"{name}.ms_per_step"] = (ms(incl, name), "ms")
        out["tf_core.lfilter.samples_per_step"] = (counts.get("tf_core.lfilter.samples", 0) / steps, "count")
        out["tf_core.lfilter.flops_per_step"] = (counts.get("tf_core.lfilter.flops", 0) / steps, "flop")
        for op in tracing.TAPE_OPS:
            out[f"tape.fwd.{op}.ms_per_step"] = (ms(incl, f"tape.fwd.{op}"), "ms")
            out[f"tape.vjp.{op}.ms_per_step"] = (ms(incl, f"tape.vjp.{op}"), "ms")
        out["tape.nodes_per_step"] = (counts.get("tape.nodes", 0) / steps, "count")
        out["tape.backward.self_ms_per_step"] = (ms(own, "tape.backward"), "ms")
        for block in ("MimoTransferFunction", "Mlp", "ParallelMlp"):
            name = f"blocks.{block}.simulate"
            out[f"{name}.ms_per_step"] = (ms(incl, name), "ms")
        for name in ("pem.pem_loss_node", "quantized.quantized_loglik_node",
                     "optim.forward", "optim.Adam.step"):
            out[f"{name}.ms_per_step"] = (ms(incl, name), "ms")
        out["optim.train.self_ms_per_step"] = (ms(own, "optim.train"), "ms")
        out["optim.divergence_restores"] = (self.restores, "count")
        out["optim.skipped_steps"] = (self.skipped, "count")
        out["optim.final_loss"] = (self.final_loss, "loss")
        for name, seconds in self.setup_layers.items():
            out[name] = (seconds, "s")
        out["trace.step_ms_p50"] = (self.traced.p(50), "ms")
        out["trace.overhead_ms_per_step"] = (self.traced.p(50) - self.untraced.p(50), "ms")
        return out
