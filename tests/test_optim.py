import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from oracles import add, mean, scale, square, sub, total

from difftf.blocks import BlockModel, MimoTransferFunction, build_pwh
from difftf.metrics import mse_loss_node
from difftf.optim import Adam, TrainConfig, TrainingDivergedError, train
from difftf.tape import Parameter, Tape
from difftf.tf_core import FilterDivergenceError, filter_forward


def per_array_adam(values, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference: Adam with one moment pair per array, skipping non-finite steps."""
    values = [np.array(v, dtype=float) for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    t = 0
    for grads in grads_per_step:
        if any(not np.all(np.isfinite(g)) for g in grads):
            continue
        t += 1
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for k, g in enumerate(grads):
            m[k] *= beta1
            m[k] += (1.0 - beta1) * g
            v2[k] *= beta2
            v2[k] += (1.0 - beta2) * g * g
            values[k] = values[k] - lr * (m[k] / c1) / (np.sqrt(v2[k] / c2) + eps)
    return values, m, v2, t


SHAPES = [(), (3,), (2, 1, 4)]


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        adam = Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        adam.step()
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        p = Parameter(np.array([0.0, 0.0]), "p")
        adam = Adam([p], lr=0.05, eps=1e-12)
        p.grad = np.array([3.0, -0.2])
        adam.step()
        # bias-corrected first step: lr * g / |g| per coordinate
        assert np.allclose(p.value, [-0.05, 0.05], rtol=1e-9)

    def test_quadratic_bowl_converges(self):
        target = np.array([1.3, -0.7])
        p = Parameter(np.zeros(2), "p")
        adam = Adam([p], lr=1e-2)
        for _ in range(5000):
            p.grad = 2.0 * (p.value - target)
            adam.step()
        assert np.linalg.norm(p.value - target) < 1e-4

    def test_non_finite_gradient_skips_step(self):
        p = Parameter(np.array([1.0]), "p")
        adam = Adam([p], lr=0.1)
        p.grad = np.array([np.nan])
        assert adam.step() is False
        assert adam.skipped_steps == 1
        assert np.array_equal(p.value, [1.0])
        assert np.array_equal(adam.m, [0.0])

    def test_state_round_trip(self):
        p = Parameter(np.array([0.5]), "p")
        adam = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        adam.step()
        state = adam.state()
        after_one = p.value.copy()
        p.grad = np.array([1.0])
        adam.step()
        after_two = p.value.copy()
        adam.restore(state)
        assert adam.t == 1
        assert not np.array_equal(after_two, p.value)
        assert np.array_equal(after_one, p.value)

    def test_flat_update_equals_per_array_reference(self, rng):
        values = [rng.normal(0.0, 1.0, s) for s in SHAPES]
        grads_per_step = [[rng.normal(0.0, 1.0, s) for s in SHAPES] for _ in range(7)]
        grads_per_step[3][1][2] = np.inf  # one skipped step in the middle
        params = [Parameter(v) for v in values]
        adam = Adam(params, lr=0.05)
        for grads in grads_per_step:
            for p, g in zip(params, grads):
                p.grad = np.array(g)
            adam.step()
        ref_values, ref_m, ref_v, ref_t = per_array_adam(values, grads_per_step, 0.05)
        assert adam.skipped_steps == 1 and adam.t == ref_t == 6
        for p, ref in zip(params, ref_values):
            assert p.value.shape == ref.shape
            assert np.array_equal(p.value, ref)
        assert np.array_equal(adam.m, np.concatenate([np.ravel(m) for m in ref_m]))
        assert np.array_equal(adam.v, np.concatenate([np.ravel(v) for v in ref_v]))

    def test_restore_brings_back_iterate_and_moments_as_views(self, rng):
        params = [Parameter(rng.normal(0.0, 1.0, s)) for s in SHAPES]
        adam = Adam(params, lr=0.05)

        def steps(n):
            for _ in range(n):
                for p in params:
                    p.grad = rng.normal(0.0, 1.0, p.value.shape)
                adam.step()

        steps(2)
        state = adam.state()
        saved = [(p.value.copy(), p.value) for p in params]
        steps(3)
        adam.lr *= 0.5
        adam.restore(state)
        assert adam.t == 2 and adam.lr == 0.05
        for name in ("theta", "m", "v"):
            assert np.array_equal(getattr(adam, name), state[name])
        for p, (value, view) in zip(params, saved):
            assert p.value is view
            assert np.array_equal(p.value, value)
            assert np.shares_memory(p.value, adam.theta)

    def test_parameter_listed_twice_rejected(self):
        p = Parameter(np.zeros(2), "p")
        with pytest.raises(ValueError, match="more than once"):
            Adam([p, Parameter(np.ones(1)), p])

    def test_empty_parameter_list(self):
        adam = Adam([])
        assert adam.theta.shape == (0,)
        assert adam.step() is True


def quadratic_builder(p, target):
    target = np.asarray(target, dtype=float)

    def build_loss():
        tape = Tape()
        leaf = tape.leaf(p)
        diff = tape.custom(leaf.value - target, (leaf,), lambda g: (g,), op="sub")
        return tape, total(tape, square(tape, diff))

    return build_loss


class TestTrain:
    def test_zero_iterations_returns_initialization(self):
        p = Parameter(np.array([2.0]), "p")
        result = train([p], quadratic_builder(p, [0.0]), TrainConfig(iterations=0))
        assert np.array_equal(p.value, [2.0])
        assert result.iterations_run == 0
        assert result.loss_trace.size == 0

    def test_fir_model_reaches_least_squares_solution(self, rng):
        """Adam on an MSE loss recovers the normal-equations coefficients."""
        taps = 8
        T = 400
        u = rng.normal(0.0, 1.0, T)
        true_b = rng.normal(0.0, 1.0, taps)
        y = filter_forward(
            MimoTransferFunction(1, 1, taps - 1, 0, 0,
                                 b=true_b.reshape(1, 1, -1),
                                 a=np.zeros((1, 1, 0))).cell(0, 0),
            u,
        ) + 0.01 * rng.normal(0.0, 1.0, T)

        # normal-equations oracle on the zero-history regression matrix
        X = np.zeros((T, taps))
        for j in range(taps):
            X[j:, j] = u[: T - j]
        theta_star = np.linalg.solve(X.T @ X, X.T @ y)

        model = BlockModel([MimoTransferFunction(1, 1, taps - 1, 0, 0, rng=rng)])
        params = [p for _, p in model.parameters()]
        u3 = u[np.newaxis, :, np.newaxis]
        y3 = y[np.newaxis, :, np.newaxis]

        def build_loss():
            tape = Tape()
            out = model.apply(tape, tape.constant(u3))
            err = sub(tape, tape.constant(y3), out)
            return tape, mean(tape, square(tape, err))

        result = train(
            params,
            build_loss,
            TrainConfig(iterations=4000, lr=2e-2, plateau_patience=800),
        )
        fitted = model.blocks[0].b.value[0, 0]
        rel = np.abs(fitted - theta_star) / np.abs(theta_star).max()
        assert rel.max() < 1e-3
        assert result.best_loss < 2e-4

    def test_identical_config_gives_identical_trace(self, rng):
        u = rng.normal(0.0, 1.0, 100)
        y = rng.normal(0.0, 1.0, 100)
        u3 = u[np.newaxis, :, np.newaxis]
        y3 = y[np.newaxis, :, np.newaxis]

        def run():
            model = BlockModel(
                [MimoTransferFunction(1, 1, 3, 0, 0, rng=np.random.default_rng(7))]
            )
            params = [p for _, p in model.parameters()]

            def build_loss():
                tape = Tape()
                out = model.apply(tape, tape.constant(u3))
                err = sub(tape, tape.constant(y3), out)
                return tape, mean(tape, square(tape, err))

            return train(params, build_loss, TrainConfig(iterations=50, lr=1e-2))

        r1, r2 = run(), run()
        assert np.array_equal(r1.loss_trace, r2.loss_trace)

    def test_log_every_prints_the_loss_every_nth_iteration(self, capsys):
        p = Parameter(np.array([3.0]), "p")
        result = train([p], quadratic_builder(p, [1.0]),
                       TrainConfig(iterations=5, lr=0.05, log_every=2))
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"iter {k}: loss {result.loss_trace[k - 1]:.6g}" for k in (2, 4)]

    def test_best_loss_is_trace_minimum(self, rng):
        p = Parameter(np.array([3.0]), "p")
        result = train([p], quadratic_builder(p, [1.0]), TrainConfig(iterations=200, lr=0.05))
        assert result.best_loss == result.loss_trace.min()
        assert p.value[0] == pytest.approx(1.0, abs=0.05)

    def test_divergence_restores_and_halves_learning_rate(self):
        p = Parameter(np.array([1.0]), "p")
        calls = {"n": 0}
        inner = quadratic_builder(p, [0.0])

        def build_loss():
            calls["n"] += 1
            if calls["n"] == 1:
                raise FilterDivergenceError(5)
            return inner()

        result = train([p], build_loss, TrainConfig(iterations=30, lr=0.2))
        assert result.divergence_restores == 1
        assert result.lr_final == pytest.approx(0.1)
        assert result.iterations_run == 30
        assert [(e["pass"], e["iteration"], e["t"]) for e in result.events] == [("forward", 0, 5)]

    def test_non_finite_loss_is_a_loss_restore_event(self):
        p = Parameter(np.array([1.0]), "p")
        losses = iter([np.nan])

        def build_loss():
            tape = Tape()
            loss = total(tape, square(tape, tape.leaf(p)))
            return tape, add(tape, loss, tape.constant(next(losses, 0.0)))

        result = train([p], build_loss, TrainConfig(iterations=3, lr=0.2))
        assert result.events == [{"event": "divergence_restore", "iteration": 0, "pass": "loss",
                                  "t": -1, "batch_element": 0, "lr": 0.1}]

    def test_divergence_in_backward_pass_restores_previous_iterate(self):
        p = Parameter(np.array([1.0]), "p")
        seen = []  # the iterate each forward pass ran at

        def build_loss():
            seen.append(p.value.copy())
            tape = Tape()
            leaf = tape.leaf(p)

            def vjp(g):
                if len(seen) == 3:  # the third iterate's filter diverges in its backward pass
                    raise FilterDivergenceError(7)
                return (2.0 * g * leaf.value,)

            return tape, tape.custom(float(np.sum(leaf.value**2)), (leaf,), vjp, op="diverging")

        result = train([p], build_loss, TrainConfig(iterations=10, lr=0.2))
        assert result.divergence_restores == 1
        assert result.lr_final == pytest.approx(0.1)
        assert result.iterations_run == 10
        assert len(result.loss_trace) == 10
        # the retry restarts from the last iterate whose backward succeeded
        assert np.array_equal(seen[3], seen[1])

    def test_backward_divergence_is_one_restore_event(self):
        p = Parameter(np.array([1.0, -0.5]), "p")
        calls = {"n": 0}

        def build_loss():
            tape = Tape()
            leaf = tape.leaf(p)

            def vjp(g):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise FilterDivergenceError(7, 1)
                return (2.0 * g * leaf.value,)

            return tape, tape.custom(float(np.sum(leaf.value**2)), (leaf,), vjp, op="diverging")

        result = train([p], build_loss, TrainConfig(iterations=5, lr=0.2))
        assert result.events == [{"event": "divergence_restore", "iteration": 1,
                                  "pass": "backward", "t": 7, "batch_element": 1, "lr": 0.1}]
        assert result.divergence_restores == 1

    def test_unrecoverable_divergence_aborts_with_diagnostics(self):
        p = Parameter(np.array([1.0]), "p")

        def always_diverges():
            raise FilterDivergenceError(0)

        with pytest.raises(TrainingDivergedError) as err:
            train([p], always_diverges, TrainConfig(iterations=10, lr=0.1))
        restores = sum(e["event"] == "divergence_restore" for e in err.value.events)
        assert restores == 5  # MAX_LR_HALVINGS
        assert "after 5 divergence recoveries" in str(err.value)
        events = err.value.events
        assert [e["event"] for e in events] == ["divergence_restore"] * 5 + ["divergence_abort"]
        assert (events[-1]["iteration"], events[-1]["pass"], events[-1]["t"]) == (0, "forward", 0)

    def test_recurring_divergence_compounds_halving(self):
        p = Parameter(np.array([1.0]), "p")

        def always_diverges():
            raise FilterDivergenceError(0)

        with pytest.raises(TrainingDivergedError) as err:
            train([p], always_diverges, TrainConfig(iterations=10, lr=0.1))
        restores = [e["lr"] for e in err.value.events if e["event"] == "divergence_restore"]
        assert restores == [0.05, 0.025, 0.0125, 0.00625, 0.003125]

    def test_skipped_steps_are_events(self):
        p = Parameter(np.array([1.0]), "p")
        calls = {"n": 0}

        def build_loss():
            tape = Tape()
            leaf = tape.leaf(p)

            def vjp(g):
                calls["n"] += 1
                bad = calls["n"] in (2, 3)  # iterations 1 and 2 get a NaN gradient
                return (np.full(1, np.nan) if bad else 2.0 * g * leaf.value,)

            return tape, tape.custom(float(np.sum(leaf.value**2)), (leaf,), vjp, op="sq")

        result = train([p], build_loss, TrainConfig(iterations=5, lr=0.1))
        assert result.skipped_steps == 2
        assert result.events == [{"event": "skipped_step", "iteration": 1, "t": 1},
                                 {"event": "skipped_step", "iteration": 2, "t": 1}]
        assert result.divergence_restores == 0

    def test_best_iteration_names_restored_iterate_below_plateau_rtol(self):
        # the last two decreases are smaller than plateau_rtol
        losses = iter([1.0, 0.5, 0.5 - 1e-9, 0.5 - 2e-9, 0.6, 0.7])
        p = Parameter(np.array([0.0]), "p")

        def build_loss():
            p.value += 1.0  # iterate k holds k + 1; its gradient is zero
            tape = Tape()
            flat = total(tape, scale(tape, tape.leaf(p), 0.0))
            return tape, add(tape, flat, tape.constant(next(losses)))

        result = train([p], build_loss, TrainConfig(iterations=6, plateau_patience=3))
        best = int(np.argmin(result.loss_trace))
        assert result.best_iteration == best == 3
        assert result.best_loss == result.loss_trace[best]
        assert p.value[0] == best + 1
        # plateau patience still counts from the last significant improvement
        assert result.stopped_on_plateau and result.iterations_run == 4
        assert result.events == [{"event": "plateau_stop", "iteration": 3, "best_iteration": 3}]

    def test_plateau_stop(self):
        p = Parameter(np.array([0.0]), "p")
        result = train(
            [p],
            quadratic_builder(p, [0.0]),  # already at the optimum
            TrainConfig(iterations=10000, lr=1e-3, plateau_patience=20),
        )
        assert result.stopped_on_plateau
        assert result.iterations_run < 100
        assert result.events == [{"event": "plateau_stop", "iteration": result.iterations_run - 1,
                                  "best_iteration": result.best_iteration}]


class TestOneTapeAlive:
    """train drops each step's tape before the next forward records one."""

    @staticmethod
    def pwh_builder(rng, batch, T, diverge_at=None):
        model = build_pwh(n_b=4, n_a=4, hidden=10, rng=rng)
        u = rng.normal(0.0, 1.0, (batch, T, 1))
        y = rng.normal(0.0, 1.0, (batch, T, 1))
        alive = []  # per call: whether the tape of the call before is still alive
        last = [lambda: None]  # a weak reference to the last tape recorded

        def build_loss():
            alive.append(last[0]() is not None)
            tape = Tape()
            last[0] = weakref.ref(tape)
            loss = mse_loss_node(tape, model.apply(tape, tape.constant(u)), y)
            if len(alive) != diverge_at:
                return tape, loss

            def vjp(g):
                raise FilterDivergenceError(3)

            # swept first: backward fails while every other node still holds its vjp
            return tape, tape.custom(loss.value, (loss,), vjp, op="diverging")

        return [p for _, p in model.parameters()], build_loss, alive

    @pytest.fixture
    def no_gc(self):
        # only reference counting may free a tape: a cycle must not hide behind gc
        gc.disable()
        yield
        gc.enable()

    def test_previous_tape_is_dead_at_each_forward(self, rng, no_gc):
        params, build_loss, alive = self.pwh_builder(rng, 2, 64)
        result = train(params, build_loss, TrainConfig(iterations=4, lr=1e-3))
        assert result.iterations_run == 4
        assert alive == [False] * 4

    def test_half_swept_tape_is_dead_at_the_retry(self, rng, no_gc):
        params, build_loss, alive = self.pwh_builder(rng, 2, 64, diverge_at=2)
        result = train(params, build_loss, TrainConfig(iterations=3, lr=1e-3))
        assert alive == [False] * 4  # the third call retries the second
        assert result.divergence_restores == 1
        assert [(e["pass"], e["iteration"]) for e in result.events] == [("backward", 1)]

    def test_training_peak_memory_is_one_step(self, rng):
        params, build_loss, _ = self.pwh_builder(rng, 4, 2048)
        tracemalloc.start()
        try:
            tape, loss = build_loss()
            tape.backward(loss)
            del tape, loss
            one_step = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            train(params, build_loss, TrainConfig(iterations=3, lr=1e-3))
            three_steps = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert three_steps <= 1.25 * one_step
