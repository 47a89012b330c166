import numpy as np
import pytest

from difftf.blocks import BlockModel, MimoTransferFunction
from difftf.optim import Adam, TrainConfig, TrainingDivergedError, train
from difftf.tape import Parameter, Tape
from difftf.tf_core import FilterDivergenceError, filter_forward


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
        assert np.array_equal(adam.m[0], [0.0])

    def test_state_round_trip(self):
        p = Parameter(np.array([0.5]), "p")
        adam = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        adam.step()
        state = adam.state()
        p.grad = np.array([1.0])
        adam.step()
        after_two = p.value.copy()
        adam.restore(state)
        p.value = np.array([0.4])  # arbitrary; only optimizer state restored
        assert adam.t == 1
        assert not np.array_equal(after_two, p.value)


def quadratic_builder(p, target):
    def build_loss():
        tape = Tape()
        leaf = tape.leaf(p)
        diff = tape.sub(leaf, tape._wrap_raw(np.asarray(target)))
        return tape, tape.total(tape.square(diff))

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
            err = tape.sub(tape.constant(y3), out)
            return tape, tape.mean(tape.square(err))

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
                err = tape.sub(tape.constant(y3), out)
                return tape, tape.mean(tape.square(err))

            return train(params, build_loss, TrainConfig(iterations=50, lr=1e-2))

        r1, r2 = run(), run()
        assert np.array_equal(r1.loss_trace, r2.loss_trace)

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

    def test_unrecoverable_divergence_aborts_with_diagnostics(self):
        p = Parameter(np.array([1.0]), "p")

        def always_diverges():
            raise FilterDivergenceError(0)

        with pytest.raises(TrainingDivergedError) as err:
            train([p], always_diverges, TrainConfig(iterations=10, lr=0.1))
        assert err.value.restores == 6  # MAX_LR_HALVINGS + 1

    def test_best_iteration_names_restored_iterate_below_plateau_rtol(self):
        # the last two decreases are smaller than plateau_rtol
        losses = iter([1.0, 0.5, 0.5 - 1e-9, 0.5 - 2e-9, 0.6, 0.7])
        p = Parameter(np.array([0.0]), "p")

        def build_loss():
            p.value = p.value + 1.0  # iterate k holds k + 1; its gradient is zero
            tape = Tape()
            return tape, tape.add(tape.total(tape.scale(tape.leaf(p), 0.0)), next(losses))

        result = train([p], build_loss, TrainConfig(iterations=6, plateau_patience=3))
        best = int(np.argmin(result.loss_trace))
        assert result.best_iteration == best == 3
        assert result.best_loss == result.loss_trace[best]
        assert p.value[0] == best + 1
        # plateau patience still counts from the last significant improvement
        assert result.stopped_on_plateau and result.iterations_run == 4

    def test_plateau_stop(self):
        p = Parameter(np.array([0.0]), "p")
        result = train(
            [p],
            quadratic_builder(p, [0.0]),  # already at the optimum
            TrainConfig(iterations=10000, lr=1e-3, plateau_patience=20),
        )
        assert result.stopped_on_plateau
        assert result.iterations_run < 100
