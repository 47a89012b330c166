import numpy as np
import pytest
from oracles import mean, square, sub

from difftf.blocks import build_pwh, build_wh
from difftf.metrics import autocorrelation, fit_index, mse_loss_node, rmse
from difftf.tape import Tape


class TestFitIndex:
    def test_perfect_simulation(self, rng):
        y = rng.normal(0.0, 1.0, 100)
        assert fit_index(y, y) == pytest.approx(100.0)
        assert rmse(y, y) == 0.0

    def test_constant_mean_prediction_scores_zero(self, rng):
        y = rng.normal(0.0, 1.0, 200)
        y_sim = np.full_like(y, y.mean())
        assert fit_index(y, y_sim) == pytest.approx(0.0, abs=1e-10)

    def test_matches_direct_formula(self, rng):
        y = rng.normal(0.0, 2.0, 150)
        y_sim = y + rng.normal(0.0, 0.5, 150)
        expected_fit = 100.0 * (
            1.0 - np.sqrt(np.sum((y - y_sim) ** 2)) / np.sqrt(np.sum((y - y.mean()) ** 2))
        )
        expected_rmse = np.sqrt(np.mean((y - y_sim) ** 2))
        assert fit_index(y, y_sim) == pytest.approx(expected_fit, rel=1e-12)
        assert rmse(y, y_sim) == pytest.approx(expected_rmse, rel=1e-12)

    def test_batched_inputs_are_pooled(self, rng):
        y = rng.normal(0.0, 1.0, (3, 40))
        y_sim = y + 0.1
        assert fit_index(y, y_sim) == pytest.approx(fit_index(y.ravel(), y_sim.ravel()))

    def test_constant_reference_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            fit_index(np.ones(10), np.zeros(10))
        # ||y - mean(y)|| of three 0.1s is 2.4e-17, not 0: the test is exact
        y = np.full(3, 0.1)
        assert np.linalg.norm(y - y.mean()) > 0.0
        with pytest.raises(ValueError, match="constant"):
            fit_index(y, np.zeros(3))

    @pytest.mark.parametrize("score", [fit_index, rmse])
    def test_inputs_of_unequal_length_rejected(self, rng, score):
        with pytest.raises(ValueError, match="same length"):
            score(rng.normal(0.0, 1.0, 5), np.zeros(4))


class TestAutocorrelation:
    def test_white_noise_is_small(self, rng):
        x = rng.normal(0.0, 1.0, 50000)
        rho = autocorrelation(x, 20)
        assert np.abs(rho).max() < 3.0 / np.sqrt(50000) * 1.5

    def test_perfect_correlation_at_period(self):
        x = np.tile([1.0, -1.0], 500)
        rho = autocorrelation(x, 4)
        assert rho[1] == pytest.approx(1.0, rel=1e-2)
        assert rho[0] == pytest.approx(-1.0, rel=1e-2)

    def test_zero_series(self):
        assert np.array_equal(autocorrelation(np.zeros(10), 3), np.zeros(3))


class TestMseLossNode:
    @pytest.mark.parametrize("build", [build_wh, build_pwh])
    def test_equals_composed_sub_square_mean_bit_for_bit(self, rng, build):
        model = build(n_b=3, n_a=3, hidden=4, rng=rng)
        u = rng.normal(0.0, 1.0, (3, 50, 1))
        y = rng.normal(0.0, 1.0, (3, 50, 1))
        params = [p for _, p in model.parameters()]

        def composed(tape, out):
            return mean(tape, square(tape, sub(tape, tape.constant(y), out)))

        def value_and_grads(loss_on):
            tape = Tape()
            loss = loss_on(tape, model.apply(tape, tape.constant(u)))
            tape.backward(loss)
            return loss.value, [p.grad.copy() for p in params], [n.op for n in tape._nodes]

        fused, fused_grads, ops = value_and_grads(lambda tape, out: mse_loss_node(tape, out, y))
        ref, ref_grads, _ = value_and_grads(composed)
        assert fused == ref
        for got, want in zip(fused_grads, ref_grads):
            assert np.array_equal(got, want)
        assert all(np.any(g != 0.0) for g in fused_grads)
        assert ops.count("const") == 1 and ops[-1] == "mse_loss"
