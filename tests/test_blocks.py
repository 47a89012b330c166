import contextlib
import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from functools import partial

import numpy as np
import pytest
from oracles import square, sub, total

from difftf import blocks
from difftf.blocks import (
    BlockModel,
    MimoTransferFunction,
    Mlp,
    ModelFile,
    Normalization,
    ParallelMlp,
    PolyStatic,
    _BLOCK_KINDS,
    build_pwh,
    build_wh,
    run_branches,
)
from difftf.gradcheck import mse_loss_on, parameter_errors
from difftf.optim import TrainConfig, TrainingDivergedError, train
from difftf.tape import Parameter, Tape
from difftf.tf_core import FilterDivergenceError, TransferFunction, filter_forward, random_stable_tf


def build_wide_nets(n_b=2, n_a=2, hidden=3, rng=None):
    """Static blocks wider than one channel: a 2-in 3-out net, then three parallel nets."""
    return BlockModel([
        Mlp(2, 4, 3, rng=rng),
        ParallelMlp([Mlp(1, 3, 1, rng=rng) for _ in range(3)]),
    ])


def assert_model_gradients_pass(model, rng, T):
    """FD check of every trainable scalar under an MSE loss on random (1, T) data."""
    u = rng.normal(0.0, 1.0, (1, T, model.in_channels))
    y_ref = rng.normal(0.0, 1.0, (1, T, model.out_channels))
    named = model.parameters()
    errs = parameter_errors([p for _, p in named], mse_loss_on(model, u, y_ref))
    for (name, _), err in zip(named, errs):
        assert err <= 1e-5, name


class TestMimoForward:
    def test_1x1_grid_equals_siso_filtering(self, rng):
        tf = random_stable_tf(rng, 3, 2, 1)
        block = MimoTransferFunction.siso(tf)
        u = rng.normal(0.0, 1.0, (1, 30, 1))
        out = block.simulate(u)
        assert np.array_equal(out[0, :, 0], filter_forward(tf, u[0, :, 0]))

    def test_2x1_identity_grid_duplicates_input(self, rng):
        block = MimoTransferFunction(
            2, 1, n_b=0, n_a=0, n_k=0, b=np.ones((2, 1, 1)), a=np.zeros((2, 1, 0))
        )
        u = rng.normal(0.0, 1.0, (1, 10, 1))
        out = block.simulate(u)
        assert np.array_equal(out[:, :, 0], u[:, :, 0])
        assert np.array_equal(out[:, :, 1], u[:, :, 0])

    def test_1x2_grid_sums_filtered_channels(self, rng):
        tf_a = random_stable_tf(rng, 2, 2)
        tf_b = random_stable_tf(rng, 1, 3)
        block = MimoTransferFunction(1, 2, n_b=2, n_a=3, n_k=0)
        block.b.value[0, 0, : tf_a.b.size] = tf_a.b
        block.b.value[0, 0, tf_a.b.size :] = 0.0
        block.a.value[0, 0, : tf_a.a.size] = tf_a.a
        block.a.value[0, 0, tf_a.a.size :] = 0.0
        block.b.value[0, 1, : tf_b.b.size] = tf_b.b
        block.b.value[0, 1, tf_b.b.size :] = 0.0
        block.a.value[0, 1] = tf_b.a
        u = rng.normal(0.0, 1.0, (1, 25, 2))
        out = block.simulate(u)
        expected = filter_forward(block.cell(0, 0), u[0, :, 0]) + filter_forward(
            block.cell(0, 1), u[0, :, 1]
        )
        assert np.allclose(out[0, :, 0], expected, rtol=1e-13, atol=1e-14)

    def test_width_mismatch_rejected(self, rng):
        block = MimoTransferFunction(1, 2, 1, 1, 0, rng=rng)
        tape = Tape()
        with pytest.raises(ValueError, match="width mismatch"):
            block.apply(tape, tape.constant(np.zeros((1, 5, 3))))

    def test_mimo_backward_sums_per_cell_input_adjoints(self, rng):
        """Output and input adjoint of 1x1, 2x1, 1x2 and 2x2 grids against per-cell sums."""
        from difftf.tf_grad import grad_u_rows

        for n_out, n_in in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            block = MimoTransferFunction(n_out, n_in, 2, 2, 0, rng=rng)
            block.a.value = rng.normal(0.0, 0.2, block.a.value.shape)
            u = rng.normal(0.0, 1.0, (2, 20, n_in))
            tape = Tape()
            u_param = Parameter(u)
            out = block.apply(tape, tape.leaf(u_param))
            loss = total(tape, square(tape, out))
            tape.backward(loss)

            y = np.zeros((2, 20, n_out))
            for o in range(n_out):
                for i in range(n_in):
                    y[:, :, o] += filter_forward(block.cell(o, i), u[:, :, i])
            assert np.array_equal(out.value, y)
            assert np.array_equal(block.simulate(u), y)
            expected = np.zeros_like(u)
            for o in range(n_out):
                g_o = 2.0 * y[:, :, o]
                for i in range(n_in):
                    expected[:, :, i] += grad_u_rows(block.cell(o, i), g_o)
            assert np.allclose(u_param.grad, expected, rtol=1e-12, atol=1e-13)

    def test_1x1_output_view_gives_correct_coefficient_adjoints(self, rng):
        block = MimoTransferFunction(1, 1, 2, 2, 1, rng=rng)
        block.a.value = np.array([[[-0.5, 0.2]]])
        u = rng.normal(0.0, 1.0, (2, 40, 1))
        tape = Tape()
        out = block.apply(tape, tape.constant(u))
        # the output shares the cell's rows; the a adjoint reads those rows
        assert out.value.base is not None
        target = rng.normal(0.0, 1.0, out.value.shape)

        def loss_on(tape):
            y = block.apply(tape, tape.constant(u))
            return total(tape, square(tape, sub(tape, y, tape.constant(target))))

        errs = parameter_errors([block.b, block.a], loss_on)
        assert max(errs) <= 1e-5


class TestMlp:
    def test_zero_weights_give_constant_bias(self, rng):
        net = Mlp(1, 4, 1, rng=rng)
        net.w1.value[:] = 0.0
        net.w2.value[:] = 0.0
        net.b2.value[:] = 0.7
        x = rng.normal(0.0, 1.0, (2, 15, 1))
        assert np.allclose(net.simulate(x), 0.7)

    def test_matches_per_timestep_evaluation(self, rng):
        net = Mlp(2, 5, 3, rng=rng)
        x = rng.normal(0.0, 1.0, (1, 12, 2))
        out = net.simulate(x)
        for t in range(12):
            direct = net.w2.value @ np.tanh(
                net.w1.value @ x[0, t] + net.b1.value
            ) + net.b2.value
            assert np.allclose(out[0, t], direct, rtol=1e-14)

    def test_static_block_commutes_with_time_shift(self, rng):
        net = Mlp(1, 6, 1, rng=rng)
        x = rng.normal(0.0, 1.0, (1, 20, 1))
        shifted = np.roll(x, 3, axis=1)
        assert np.allclose(
            net.simulate(shifted), np.roll(net.simulate(x), 3, axis=1), rtol=1e-14
        )

    def test_parallel_nets_are_one_node_with_per_net_gradients(self, rng):
        nets = ParallelMlp([Mlp(1, 4, 1, rng=rng) for _ in range(3)])
        x = rng.normal(0.0, 1.0, (2, 15, 3))
        tape = Tape()
        x_param = Parameter(x)
        tape.backward(total(tape, square(tape, nets.apply(tape, tape.leaf(x_param)))))
        assert [n.op for n in tape._nodes if n.op != "param"] == [
            "mlp", "square", "sum",
        ]
        grads = [p.grad.copy() for _, p in nets.parameters()]
        for k, net in enumerate(nets.nets):
            single = Tape()
            xk = Parameter(x[:, :, k : k + 1])
            single.backward(total(single, square(single, net.apply(single, single.leaf(xk)))))
            assert np.allclose(x_param.grad[:, :, k : k + 1], xk.grad, rtol=1e-13)
            for j, (_, p) in enumerate(net.parameters()):
                assert np.allclose(grads[4 * k + j], p.grad, rtol=1e-13, atol=1e-14)

    def test_static_net_kernel_matches_per_net_time_major_reference(self, rng):
        G, H, I, O = 3, 4, 2, 2
        w1, b1 = rng.normal(size=(G, H, I)), rng.normal(size=(G, H))
        w2, b2 = rng.normal(size=(G, O, H)), rng.normal(size=(G, O))
        x = rng.normal(0.0, 1.0, (2, 30, G * I))
        g = rng.normal(0.0, 1.0, (2, 30, G * O))
        y, *bars = nets_pass(nets_of(w1, b1, w2, b2), x, g)
        for k in range(G):
            xk = x[:, :, k * I : (k + 1) * I].reshape(-1, I)
            gk = g[:, :, k * O : (k + 1) * O].reshape(-1, O)
            h = np.tanh(xk @ w1[k].T + b1[k])
            z = (gk @ w2[k]) * (1.0 - h * h)
            assert np.allclose(y[:, :, k * O : (k + 1) * O].reshape(-1, O), h @ w2[k].T + b2[k],
                               rtol=1e-12, atol=1e-14)
            for got, want in zip(bars[4 * k : 4 * k + 4],
                                 (z.T @ xk, z.sum(axis=0), gk.T @ h, gk.sum(axis=0))):
                assert np.allclose(got, want, rtol=1e-12, atol=1e-13)
            x_bar = bars[-1][:, :, k * I : (k + 1) * I].reshape(-1, I)
            assert np.allclose(x_bar, z @ w1[k], rtol=1e-12, atol=1e-13)

    def test_static_block_saves_its_hidden_activations_as_one_contiguous_array(self, rng):
        # one hidden array per net slowed a PWH training step by about 25 % (see _nets_forward)
        block = ParallelMlp([Mlp(1, 5, 1, rng=rng) for _ in range(3)])
        tape = Tape()
        node = block.apply(tape, tape.leaf(Parameter(rng.normal(0.0, 1.0, (2, 40, 3)))))
        saved = [cell.cell_contents for cell in node.vjp.__closure__]
        hid = [a for a in saved if isinstance(a, np.ndarray) and a.shape == (3, 5, 80)]
        assert len(hid) == 1
        assert hid[0].flags.c_contiguous and hid[0].base is None

    def test_parallel_nets_must_share_hidden_width(self, rng):
        with pytest.raises(ValueError, match="hidden width"):
            ParallelMlp([Mlp(1, 3, 1, rng=rng), Mlp(1, 4, 1, rng=rng)])


def force_branches(monkeypatch, threaded):
    """Take the two-thread path for every multi-branch call, whatever its size, or
    the serial path for all."""
    monkeypatch.setattr(blocks, "branch_threads",
                        (lambda n, samples: n > 1) if threaded else (lambda n, samples: False))


def grid_pass(grid, x, g):
    """y and the (b, a, x) adjoints of one grid node for the output adjoint g."""
    tape = Tape()
    y = grid.apply(tape, tape.leaf(Parameter(x)))
    return (y.value, *y.vjp(g))


def nets_of(w1, b1, w2, b2):
    """One Mlp per leading index of weights stacked on a net axis."""
    G, H, I = w1.shape
    return [Mlp(I, H, w2.shape[1], weights=(w1[k], b1[k], w2[k], b2[k])) for k in range(G)]


def nets_pass(nets, x, g):
    """y, every net's (w1, b1, w2, b2) adjoints in net order, then x's adjoint, of
    one `mlp` node of the nets for the output adjoint g."""
    tape = Tape()
    y = blocks._apply_static_nets(tape, nets, tape.leaf(Parameter(x)))
    return (y.value, *y.vjp(g))


@contextlib.contextmanager
def busy_worker():
    """Keep the branch pool's worker thread on a job of its own until the block ends."""
    started, release = threading.Event(), threading.Event()
    busy = blocks._pool.submit(lambda: (started.set(), release.wait(30)))
    try:
        assert started.wait(30)
        yield
    finally:
        release.set()
        busy.result(30)


class TestBranchThreads:
    def test_job_0_runs_here_and_every_job_once_on_at_most_one_worker(self, monkeypatch):
        force_branches(monkeypatch, True)
        seen = []

        def job(k):
            seen.append(k)
            time.sleep(0.01)  # long enough for the worker to join in
            return k, threading.get_ident()

        out = run_branches([lambda k=k: job(k) for k in range(4)], 1)
        assert [k for k, _ in out] == [0, 1, 2, 3]
        assert out[0][1] == threading.get_ident()
        assert sorted(seen) == [0, 1, 2, 3]
        assert len({ident for _, ident in out} - {threading.get_ident()}) <= 1

    def test_calling_thread_runs_every_job_when_the_worker_is_busy(self, monkeypatch):
        force_branches(monkeypatch, True)
        with busy_worker():
            out = run_branches([threading.get_ident] * 3, 1)
        assert out == [threading.get_ident()] * 3

    def test_a_finished_call_holds_no_array_of_a_job_left_queued(self, monkeypatch):
        force_branches(monkeypatch, True)
        held = np.ones(8)
        freed = weakref.ref(held)
        with busy_worker():  # job 1's work item stays queued behind the busy job
            assert run_branches([lambda: 0.0, partial(np.sum, held)], 1) == [0.0, 8.0]
            del held
            assert freed() is None

    def test_raised_exception_frees_the_callers_arrays_without_the_cycle_collector(
            self, monkeypatch):
        force_branches(monkeypatch, True)
        freed = []

        def diverges():
            raise FilterDivergenceError(0)

        def caller():
            held = np.ones(8)
            freed.append(weakref.ref(held))
            run_branches([diverges, diverges], 1)

        gc.disable()
        try:
            try:
                caller()
            except FilterDivergenceError:
                pass
            assert freed[0]() is None
        finally:
            gc.enable()

    def test_process_that_ran_a_threaded_grid_exits_promptly(self):
        code = (
            "import threading, numpy as np\n"
            "from difftf import blocks\n"
            "blocks.branch_threads = lambda n, samples: n > 1\n"
            "grid = blocks.MimoTransferFunction(2, 1, 2, 1, 1, rng=np.random.default_rng(0))\n"
            "grid.simulate(np.ones((1, 50, 1)))\n"
            "assert any(t.name.startswith('difftf-branches') for t in threading.enumerate())\n"
        )
        src = os.path.dirname(os.path.dirname(blocks.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_first_exception_in_list_order_is_raised_after_every_job(self, monkeypatch):
        force_branches(monkeypatch, True)
        finished = []

        def fails(exc, delay=0.0):
            time.sleep(delay)
            finished.append(exc)
            raise exc

        late = KeyError("late")
        jobs = [lambda: 0, lambda: fails(ValueError("first")), lambda: fails(late, 0.05)]
        with pytest.raises(ValueError, match="first"):
            run_branches(jobs, 1)
        assert late in finished
        # job 0 failing waits for the worker too
        jobs = [lambda: fails(ValueError("here")), lambda: fails(late, 0.05)]
        finished.clear()
        with pytest.raises(ValueError, match="here"):
            run_branches(jobs, 1)
        assert late in finished

    def test_concurrent_callers_each_get_their_own_results(self, monkeypatch):
        force_branches(monkeypatch, True)
        failures = []

        def caller(c):
            for r in range(50):
                jobs = [lambda k=k: (c, r, k) for k in range(3)]
                if run_branches(jobs, 1) != [(c, r, k) for k in range(3)]:
                    failures.append((c, r))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert failures == []

    def test_one_cpu_one_branch_or_small_branches_run_serially(self, monkeypatch):
        big = blocks.MIN_BRANCH_SAMPLES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not blocks.branch_threads(2, big)
        assert run_branches([threading.get_ident] * 3, big) == [threading.get_ident()] * 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert blocks.branch_threads(2, big)
        assert not blocks.branch_threads(1, big) and not blocks.branch_threads(2, big - 1)
        assert run_branches([threading.get_ident] * 3, big - 1) == [threading.get_ident()] * 3

    @staticmethod
    def pwh_on(rng, batch):
        """A PWH model with poles and an input of `batch` rows of 4096 samples."""
        model = build_pwh(rng=rng)
        for grid in (model.blocks[0], model.blocks[2]):
            grid.a.value[...] = rng.normal(0.0, 0.05, grid.a.value.shape)
        return model, rng.normal(0.0, 1.0, (batch, 4096, 1))

    def test_pwh_simulate_threads_at_10x4096_and_not_at_4x4096(self, rng, monkeypatch):
        taken = []

        def spy(n_jobs, samples, real=blocks.branch_threads):
            taken.append(real(n_jobs, samples))
            return taken[-1]

        monkeypatch.setattr(blocks, "branch_threads", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        model, x = self.pwh_on(rng, 10)
        model.simulate(x)
        assert taken == [True] * 3  # the 2x1 grid, the two nets, the 1x2 grid
        taken.clear()
        model.simulate(x[:4])
        assert taken == [False] * 3

    def test_pwh_at_10x4096_threaded_equals_serial_bit_for_bit(self, rng, monkeypatch):
        model, x = self.pwh_on(rng, 10)
        target = rng.normal(0.0, 1.0, x.shape)
        params = [p for _, p in model.parameters()]
        results = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert blocks.branch_threads(2, x.shape[0] * x.shape[1]) == (len(cpus) > 1)
            y = model.simulate(x)
            tape = Tape()
            loss = mse_loss_on(model, x, target)(tape)
            tape.backward(loss)
            results.append([y, loss.value, *(p.grad.copy() for p in params)])
        for serial, threaded in zip(*results):
            assert np.array_equal(serial, threaded)

    @pytest.mark.parametrize("out_ch, in_ch", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_threaded_grid_equals_serial_bit_for_bit(self, rng, monkeypatch, out_ch, in_ch):
        grid = MimoTransferFunction(out_ch, in_ch, 4, 3, 1, rng=rng)
        grid.a.value[...] = rng.normal(0.0, 0.2, grid.a.value.shape)
        x = rng.normal(0.0, 1.0, (2, 300, in_ch))
        g = rng.normal(0.0, 1.0, (2, 300, out_ch))
        results = []
        for threaded in (False, True):
            force_branches(monkeypatch, threaded)
            results.append(grid_pass(grid, x, g))
        for serial, threaded in zip(*results):
            assert np.array_equal(serial, threaded)

    @pytest.mark.parametrize("G, I, O", [(1, 1, 1), (2, 1, 1), (3, 1, 1), (3, 2, 2)])
    def test_threaded_nets_equal_serial_bit_for_bit(self, rng, monkeypatch, G, I, O):
        w1, b1 = rng.normal(size=(G, 5, I)), rng.normal(size=(G, 5))
        w2, b2 = rng.normal(size=(G, O, 5)), rng.normal(size=(G, O))
        x = rng.normal(0.0, 1.0, (2, 400, G * I))
        g = rng.normal(0.0, 1.0, (2, 400, G * O))
        results = []
        for threaded in (False, True):
            force_branches(monkeypatch, threaded)
            results.append(nets_pass(nets_of(w1, b1, w2, b2), x, g))
        for serial, threaded in zip(*results):
            assert np.array_equal(serial, threaded)

    def test_forked_child_runs_a_grid_after_a_threaded_section(self, rng, monkeypatch):
        force_branches(monkeypatch, True)
        grid = MimoTransferFunction(2, 1, 3, 2, 1, rng=rng)
        x = rng.normal(0.0, 1.0, (2, 200, 1))
        expected = grid.simulate(x)  # starts the worker thread
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)  # a child left waiting on the parent's worker dies here
                code = 0 if np.array_equal(grid.simulate(x), expected) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    @staticmethod
    def diverging_grid(rng, out_ch=2, in_ch=1, cells=((1, 0),)):
        """A grid whose listed cells have a pole at 2, and an input that is zero
        in batch element 0."""
        grid = MimoTransferFunction(out_ch, in_ch, 2, 1, 0, rng=rng)
        for o, i in cells:
            grid.a.value[o, i] = [-2.0]
        x = rng.normal(0.0, 1.0, (2, 1500, in_ch))
        x[0] = 0.0
        return grid, x

    @pytest.mark.parametrize("out_ch, in_ch, cells", [
        (2, 1, ((1, 0),)),
        (2, 2, ((1, 0), (0, 1))),  # both diverge: the first in (o, i) order is named
    ])
    def test_diverging_cell_is_named_alike_by_both_paths(self, rng, monkeypatch,
                                                         out_ch, in_ch, cells):
        grid, x = self.diverging_grid(rng, out_ch, in_ch, cells)
        raised = []
        for threaded in (False, True):
            force_branches(monkeypatch, threaded)
            with pytest.raises(FilterDivergenceError) as err:
                grid.simulate(x)
            raised.append((err.value.t_index, err.value.batch_index, err.value.cell))
        assert raised[0] == raised[1]
        assert raised[0][1:] == (1, min(cells))
        assert f"grid cell {min(cells)}" in str(err.value)

    def test_backward_divergence_names_its_cell_alike_by_both_paths(self, rng, monkeypatch):
        grid = MimoTransferFunction(2, 1, 2, 1, 0, rng=rng)
        x = rng.normal(0.0, 1.0, (2, 300, 1))
        g = np.zeros((2, 300, 2))
        g[1, 120, 1] = np.inf  # reaches only cell (1, 0)'s reverse pass
        raised = []
        for threaded in (False, True):
            force_branches(monkeypatch, threaded)
            with pytest.raises(FilterDivergenceError) as err:
                grid_pass(grid, x, g)
            raised.append((err.value.t_index, err.value.batch_index, err.value.cell))
        assert raised[0] == raised[1] == (120, 1, (1, 0))

    def test_divergence_events_name_the_op_and_cell(self, rng):
        grid, x = self.diverging_grid(rng)
        target = np.zeros((2, 1500, 2))

        def build_loss():
            tape = Tape()
            return tape, mse_loss_on(BlockModel([grid]), x, target)(tape)

        with pytest.raises(TrainingDivergedError) as err:
            train([grid.b], build_loss, TrainConfig(iterations=3, lr=1e-3))
        events = err.value.events
        assert [e["event"] for e in events] == ["divergence_restore"] * 5 + ["divergence_abort"]
        t = events[0]["t"]
        assert t > 0
        for e in events:
            assert (e["op"], e["cell"], e["pass"], e["t"], e["batch_element"]) == (
                "mimo_filter", [1, 0], "forward", t, 1)
        assert json.loads(json.dumps(events)) == events


def two_channel_blocks(rng):
    """One block of every kind, each two channels wide, by kind."""
    examples = {
        "tf": MimoTransferFunction(2, 2, 2, 2, 1, rng=rng),
        "mlp": Mlp(2, 4, 2, rng=rng),
        "parallel_mlp": ParallelMlp([Mlp(1, 3, 1, rng=rng) for _ in range(2)]),
        "poly": PolyStatic([[0.1, 1.0, -0.3], [0.0, 0.5, 0.2]]),
    }
    examples["tf"].a.value = rng.normal(0.0, 0.2, examples["tf"].a.value.shape)
    assert set(examples) == set(_BLOCK_KINDS)
    return examples


class TestSimulate:
    def test_simulate_equals_tape_forward_bit_for_bit_for_every_block_kind(self, rng):
        x = rng.normal(0.0, 1.0, (3, 40, 2))
        for kind, block in two_channel_blocks(rng).items():
            tape = Tape()
            on_tape = block.apply(tape, tape.constant(x)).value
            assert np.array_equal(block.simulate(x), on_tape), kind

    @pytest.mark.parametrize("width", [1, 3])
    def test_simulate_and_apply_reject_a_width_mismatch_for_every_block_kind(self, rng, width):
        x = np.zeros((1, 5, width))
        for block in two_channel_blocks(rng).values():
            with pytest.raises(ValueError, match=f"expects 2 channels, got {width}"):
                block.simulate(x)
            tape = Tape()
            with pytest.raises(ValueError, match=f"expects 2 channels, got {width}"):
                block.apply(tape, tape.constant(x))

    @pytest.mark.parametrize("make", [
        lambda: MimoTransferFunction(0, 1, 1, 1, 0),
        lambda: MimoTransferFunction(1, 0, 1, 1, 0),
        lambda: Mlp(1, 0, 1),
        lambda: ParallelMlp([]),
        lambda: PolyStatic([]),
    ])
    def test_blocks_reject_a_size_below_1(self, make):
        with pytest.raises(ValueError, match=">= 1, got 0"):
            make()


class TestBuilders:
    def test_wh_structure(self, rng):
        model = build_wh(rng=rng)
        kinds = [b.kind for b in model.blocks]
        assert kinds == ["tf", "mlp", "tf"]
        g1, net, g2 = model.blocks
        assert (g1.n_b, g1.n_a, g1.n_k) == (8, 8, 1)
        assert (g2.n_b, g2.n_a, g2.n_k) == (8, 8, 0)
        assert net.hidden == 10
        assert model.in_channels == 1 and model.out_channels == 1

    def test_pwh_structure(self, rng):
        model = build_pwh(rng=rng)
        g1, nets, g2 = model.blocks
        assert (g1.out_channels, g1.in_channels) == (2, 1)
        assert isinstance(nets, ParallelMlp) and len(nets.nets) == 2
        assert (g2.out_channels, g2.in_channels) == (1, 2)
        for g in (g1, g2):
            assert (g.n_b, g.n_a, g.n_k) == (12, 12, 1)

    def test_wh_zero_input_is_bias_through_final_filter(self, rng):
        model = build_wh(n_b=2, n_a=2, hidden=4, rng=rng)
        g1, net, g2 = model.blocks
        T = 30
        out = model.simulate(np.zeros((1, T, 1)))
        bias_level = float(net.simulate(np.zeros((1, 1, 1)))[0, 0, 0])
        expected = filter_forward(g2.cell(0, 0), np.full(T, bias_level))
        assert np.allclose(out[0, :, 0], expected, rtol=1e-13, atol=1e-14)

    def test_parallel_mlp_channels_are_independent(self, rng):
        nets = ParallelMlp([Mlp(1, 4, 1, rng=rng), Mlp(1, 4, 1, rng=rng)])
        x = rng.normal(0.0, 1.0, (1, 10, 2))
        out1 = nets.simulate(x)
        x_perturbed = x.copy()
        x_perturbed[:, :, 1] += 10.0
        out2 = nets.simulate(x_perturbed)
        assert np.array_equal(out1[:, :, 0], out2[:, :, 0])
        assert not np.allclose(out1[:, :, 1], out2[:, :, 1])

    @pytest.mark.parametrize("builder", [build_wh, build_pwh])
    def test_default_model_gradients_pass_finite_differences(self, rng, builder):
        """Every trainable scalar of the default-order models at T=64."""
        model = builder(rng=rng)
        assert_model_gradients_pass(model, rng, T=64)

    @pytest.mark.parametrize("builder", [build_wh, build_pwh, build_wide_nets])
    def test_full_model_gradients_pass_finite_differences(self, rng, builder):
        model = builder(n_b=2, n_a=2, hidden=3, rng=rng)
        assert_model_gradients_pass(model, rng, T=64)


class TestPolyStatic:
    def test_cubic_evaluation(self):
        block = PolyStatic([[0.0, 1.0, 0.5, -0.25]])
        x = np.linspace(-1, 1, 11)[np.newaxis, :, np.newaxis]
        expected = x[0, :, 0] + 0.5 * x[0, :, 0] ** 2 - 0.25 * x[0, :, 0] ** 3
        assert np.allclose(block.simulate(x)[0, :, 0], expected, rtol=1e-14)

    def test_input_gradient(self, rng):
        block = PolyStatic([[0.1, 1.0, -0.3, 0.2]])
        x = rng.normal(0.0, 1.0, (1, 10, 1))
        tape = Tape()
        x_param = Parameter(x)
        loss = total(tape, block.apply(tape, tape.leaf(x_param)))
        tape.backward(loss)
        slope = 1.0 - 0.6 * x + 0.6 * x**2
        assert np.allclose(x_param.grad, slope, rtol=1e-13)


class TestSerialization:
    def test_model_json_round_trip_is_lossless(self, rng, tmp_path):
        model = build_pwh(n_b=3, n_a=2, hidden=4, rng=rng)
        norm = Normalization(
            rng.normal(size=1), rng.uniform(0.5, 2.0, 1),
            rng.normal(size=1), rng.uniform(0.5, 2.0, 1),
        )
        noise = TransferFunction(rng.normal(size=3), rng.normal(0, 0.1, 2), 1)
        mf = ModelFile(model, norm, noise, log_sigma_e=-2.5, meta={"note": "x"})
        path = tmp_path / "model.json"
        mf.save(path)
        back = ModelFile.load(path)

        for (n1, p1), (n2, p2) in zip(model.parameters(), back.model.parameters()):
            assert n1 == n2
            assert np.array_equal(p1.value, p2.value)
        assert np.array_equal(back.noise_filter.b, noise.b)
        assert np.array_equal(back.noise_filter.a, noise.a)
        assert back.log_sigma_e == -2.5
        assert np.array_equal(back.normalization.u_mean, norm.u_mean)
        u = rng.normal(0.0, 1.0, (1, 20, 1))
        assert np.array_equal(mf.simulate(u), back.simulate(u))

    def test_truth_model_with_poly_round_trips(self, tmp_path):
        from difftf.datagen import synthetic_wh_truth

        truth = ModelFile(synthetic_wh_truth())
        path = tmp_path / "truth.json"
        truth.save(path)
        back = ModelFile.load(path)
        u = np.random.default_rng(0).normal(0.0, 1.0, (1, 50, 1))
        assert np.array_equal(truth.simulate(u), back.simulate(u))

    def test_mlp_weights_that_disagree_with_its_sizes_are_rejected(self, rng):
        cfg = Mlp(1, 4, 1, rng=rng).to_config()
        cfg["hidden"] = 5
        with pytest.raises(ValueError, match="its sizes give"):
            Mlp.from_config(cfg)

    def test_width_mismatch_rejected_at_build(self, rng):
        with pytest.raises(ValueError, match="widths differ"):
            BlockModel([
                MimoTransferFunction(2, 1, 1, 1, 0, rng=rng),
                Mlp(1, 3, 1, rng=rng),
            ])

    @pytest.mark.parametrize("make, match", [
        (lambda: BlockModel([]), "at least one block"),
        (lambda: ParallelMlp([Mlp(2, 3, 1)]), "one-input-one-output"),
    ])
    def test_empty_model_and_multi_input_parallel_net_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestNormalization:
    def test_round_trip(self, rng):
        u = rng.normal(2.0, 3.0, (2, 40, 1))
        y = rng.normal(-1.0, 0.5, (2, 40, 1))
        norm = Normalization.from_data(u, y)
        assert np.allclose(norm.normalize_u(u).mean(), 0.0, atol=1e-12)
        assert np.allclose(norm.normalize_u(u).std(), 1.0, atol=1e-12)
        assert np.allclose(norm.denormalize_y(norm.normalize_y(y)), y, atol=1e-12)

    @pytest.mark.parametrize("column", ["u", "y"])
    def test_statistics_that_overflow_name_the_column(self, rng, column):
        data = {"u": rng.normal(0.0, 1.0, (1, 200, 1)), "y": rng.normal(0.0, 1.0, (1, 200, 1))}
        data[column] *= 1e300  # the squares overflow: std is inf
        with pytest.raises(ValueError, match=f"the {column} column"):
            Normalization.from_data(data["u"], data["y"])
