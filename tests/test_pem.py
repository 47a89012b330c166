import numpy as np
import pytest
from oracles import add, inverse_noise_impulse_response, mean, square, sub

from difftf.blocks import BlockModel, MimoTransferFunction, build_wh
from difftf.gradcheck import central_difference, relative_errors
from difftf.pem import (
    PemModel,
    bode_magnitude_table,
    estimated_noise_filter,
    invert_monic_noise_filter,
    magnitude_response_db,
    one_step_predictor,
    pem_loss,
    prediction_error,
)
from difftf.tape import Tape
from difftf.tf_core import TransferFunction, filter_forward, impulse_response


def zero_model():
    """Single FIR block with all-zero coefficients: M(u) = 0."""
    return BlockModel([
        MimoTransferFunction(1, 1, 0, 0, 0, b=np.zeros((1, 1, 1)), a=np.zeros((1, 1, 0)))
    ])


def as3d(x):
    return np.asarray(x, dtype=float)[np.newaxis, :, np.newaxis]


class TestPredictionError:
    def test_trivial_noise_block_gives_plain_residual(self, rng):
        model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
        pm = PemModel(model)  # noise block initialized at zero
        u = as3d(rng.normal(0.0, 1.0, 40))
        y = as3d(rng.normal(0.0, 1.0, 40))
        eps = prediction_error(pm, u, y)
        residual = y - model.simulate(u)
        assert np.allclose(eps, residual, rtol=1e-14)

    def test_manual_first_order_recursion(self, rng):
        """With M = 0, eps = y + Hc(q) y; verify against a hand-rolled loop."""
        pm = PemModel(zero_model(), noise_n_b=0, noise_n_a=1)
        b0, a1 = 0.6, -0.4
        pm.noise_b.value[:] = [b0]
        pm.noise_a.value[:] = [a1]
        y = rng.normal(0.0, 1.0, 30)
        eps = prediction_error(pm, as3d(np.zeros(30)), as3d(y))[0, :, 0]

        w = np.zeros(30)
        for t in range(30):
            w[t] = -a1 * (w[t - 1] if t >= 1 else 0.0) + b0 * (y[t - 1] if t >= 1 else 0.0)
        assert np.allclose(eps, y + w, rtol=1e-13, atol=1e-14)

    def test_exact_model_gives_zero_error_regardless_of_noise_block(self, rng):
        model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
        pm = PemModel(model)
        pm.noise_b.value[:] = rng.normal(0.0, 0.3, pm.noise_b.value.shape)
        pm.noise_a.value[:] = rng.normal(0.0, 0.3, pm.noise_a.value.shape)
        u = as3d(rng.normal(0.0, 1.0, 50))
        y = model.simulate(u)
        eps = prediction_error(pm, u, y)
        assert np.allclose(eps, 0.0, atol=1e-12)


class TestOneStepPredictor:
    def test_trivial_noise_block_predicts_model_output(self, rng):
        model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
        pm = PemModel(model)
        u = as3d(rng.normal(0.0, 1.0, 30))
        y = as3d(rng.normal(0.0, 1.0, 30))
        assert np.allclose(one_step_predictor(pm, u, y), model.simulate(u), rtol=1e-14)

    def test_predictor_identity_yhat_plus_eps_is_y(self, rng):
        model = build_wh(n_b=3, n_a=3, hidden=4, rng=rng)
        pm = PemModel(model)
        pm.noise_b.value[:] = rng.normal(0.0, 0.2, pm.noise_b.value.shape)
        pm.noise_a.value[:] = rng.normal(0.0, 0.2, pm.noise_a.value.shape)
        u = as3d(rng.normal(0.0, 1.0, 60))
        y = as3d(rng.normal(0.0, 1.0, 60))
        yhat = one_step_predictor(pm, u, y)
        eps = prediction_error(pm, u, y)
        assert np.allclose(yhat + eps, y, rtol=0, atol=2e-16 * np.abs(y).max())

    def test_causality_probe(self, rng):
        """Perturbing y(t0) must not change yhat(t) for any t <= t0."""
        model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
        pm = PemModel(model)
        pm.noise_b.value[:] = rng.normal(0.0, 0.2, pm.noise_b.value.shape)
        pm.noise_a.value[:] = rng.normal(0.0, 0.2, pm.noise_a.value.shape)
        u = as3d(rng.normal(0.0, 1.0, 40))
        y = as3d(rng.normal(0.0, 1.0, 40))
        base = one_step_predictor(pm, u, y)[0, :, 0]
        t0 = 17
        y2 = y.copy()
        y2[0, t0, 0] += 5.0
        probed = one_step_predictor(pm, u, y2)[0, :, 0]
        # strictly unchanged before t0; at t0 the value is reconstructed
        # through y - eps, so only rounding-level wiggle is possible there
        assert np.array_equal(probed[:t0], base[:t0])
        assert abs(probed[t0] - base[t0]) < 1e-12
        assert not np.allclose(probed[t0 + 1 :], base[t0 + 1 :])


class TestPemLoss:
    def test_zero_error_gives_zero_loss(self, rng):
        model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
        pm = PemModel(model)
        u = as3d(rng.normal(0.0, 1.0, 30))
        assert pem_loss(pm, u, model.simulate(u)) == pytest.approx(0.0, abs=1e-25)

    def test_constant_error_gives_squared_constant(self, rng):
        pm = PemModel(zero_model())
        y = np.full(25, 0.3)
        assert pem_loss(pm, as3d(np.zeros(25)), as3d(y)) == pytest.approx(0.09)

    def test_matches_mean_of_squared_prediction_error(self, rng):
        model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
        pm = PemModel(model)
        pm.noise_b.value[:] = rng.normal(0.0, 0.2, pm.noise_b.value.shape)
        u = as3d(rng.normal(0.0, 1.0, 45))
        y = as3d(rng.normal(0.0, 1.0, 45))
        eps = prediction_error(pm, u, y)
        assert pem_loss(pm, u, y) == pytest.approx(float(np.mean(eps**2)), rel=1e-14)

    def test_gradient_w_r_t_noise_parameters(self, rng):
        model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
        pm = PemModel(model)
        pm.noise_b.value[:] = rng.normal(0.0, 0.2, pm.noise_b.value.shape)
        pm.noise_a.value[:] = rng.normal(0.0, 0.2, pm.noise_a.value.shape)
        u = as3d(rng.normal(0.0, 1.0, 50))
        y = as3d(rng.normal(0.0, 1.0, 50))

        tape = Tape()
        loss = pm.pem_loss_node(tape, u, y)
        pm.noise_b.grad = np.zeros_like(pm.noise_b.value)
        pm.noise_a.grad = np.zeros_like(pm.noise_a.value)
        tape.backward(loss)

        for p in (pm.noise_b, pm.noise_a):
            def f(v, target=p):
                saved = target.value.copy()
                try:
                    target.value = v
                    return pem_loss(pm, u, y)
                finally:
                    target.value = saved

            fd = central_difference(f, p.value)
            assert relative_errors(p.grad, fd).max() <= 1e-5

    def test_loss_tape_records_every_filter_as_a_grid(self, rng):
        pm = PemModel(build_wh(n_b=2, n_a=2, hidden=3, rng=rng))
        tape = Tape()
        pm.pem_loss_node(tape, as3d(rng.normal(0.0, 1.0, 30)), as3d(rng.normal(0.0, 1.0, 30)))
        ops = [node.op for node in tape._nodes]
        assert ops.count("mimo_filter") == 3
        assert "filter" not in ops
        # r = M(u) - y as one residual node, then the noise grid and one loss op
        assert ops[-5:] == ["residual", "param", "param", "mimo_filter", "pem_loss"]
        assert ops.count("const") == 1  # u only: y enters through the residual
        assert not {"add", "sub", "square", "mean"} & set(ops)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("T", [1, 64])
    def test_fused_loss_equals_composed_graph_bit_for_bit(self, rng, batch, T):
        pm = PemModel(build_wh(n_b=2, n_a=2, hidden=3, rng=rng))
        pm.noise_b.value[:] = rng.normal(0.0, 0.3, pm.noise_b.value.shape)
        pm.noise_a.value[:] = [-0.4, 0.1]
        u = rng.normal(0.0, 1.0, (batch, T, 1))
        y = rng.normal(0.0, 1.0, (batch, T, 1))
        params = [p for _, p in pm.parameters()]

        def composed(tape):
            d = sub(tape, tape.constant(y), pm.model.apply(tape, tape.constant(u)))
            eps = add(tape, d, pm.noise.apply(tape, d))
            return mean(tape, square(tape, eps))

        def value_and_grads(loss_on):
            tape = Tape()
            loss = loss_on(tape)
            tape.backward(loss)
            return loss.value, [p.grad.copy() for p in params]

        fused, fused_grads = value_and_grads(lambda tape: pm.pem_loss_node(tape, u, y))
        ref, ref_grads = value_and_grads(composed)
        assert fused == ref
        for got, want in zip(fused_grads, ref_grads):
            assert np.array_equal(got, want)
        assert any(np.any(g != 0.0) for g in fused_grads)

    def test_value_helpers_equal_the_tape_path(self, rng):
        pm = PemModel(build_wh(n_b=2, n_a=2, hidden=3, rng=rng))
        pm.noise_b.value[:] = rng.normal(0.0, 0.3, pm.noise_b.value.shape)
        pm.noise_a.value[:] = [-0.4, 0.1]
        u = rng.normal(0.0, 1.0, (3, 500, 1))
        y = rng.normal(0.0, 1.0, (3, 500, 1))
        tape = Tape()
        r, hr = pm._error_nodes(tape, u, y)
        assert np.array_equal(prediction_error(pm, u, y), -(r.value + hr.value))
        assert pem_loss(pm, u, y) == pm.pem_loss_node(Tape(), u, y).value

    def test_residual_vjp_passes_its_adjoint_through(self, rng):
        pm = PemModel(build_wh(n_b=2, n_a=2, hidden=3, rng=rng))
        u = rng.normal(0.0, 1.0, (2, 20, 1))
        y = rng.normal(0.0, 1.0, (2, 20, 1))
        r, _ = pm._error_nodes(Tape(), u, y)
        g = rng.normal(0.0, 1.0, r.value.shape)
        (out_bar,) = r.vjp(g)
        assert out_bar is g
        assert r.op == "residual"


class TestNoiseFilter:
    def test_monic_inverse_impulse_response_leads_with_one(self, rng):
        pm = PemModel(zero_model())
        pm.noise_b.value[:] = rng.normal(0.0, 0.5, pm.noise_b.value.shape)
        pm.noise_a.value[:] = rng.normal(0.0, 0.3, pm.noise_a.value.shape)
        g = inverse_noise_impulse_response(pm, 16)
        assert g[0] == 1.0

    def test_trivial_noise_block_gives_flat_magnitude(self):
        pm = PemModel(zero_model())
        h = estimated_noise_filter(pm)
        mags = magnitude_response_db(h, np.linspace(0.01, 0.45, 20))
        assert np.allclose(mags, 0.0, atol=1e-12)

    def test_recovers_known_shaping_filter(self):
        """Choose Hc so 1 + Hc equals the inverse of a known H_o; the
        estimated filter must reproduce H_o's coefficients."""
        h_o_b = np.array([1.0, -1.568, 0.902])
        h_o_a = np.array([-1.901, 0.9409])
        # 1 + q^-1 Bc/Ac = A_o/B_o with Ac = B_o numerator tail
        ac = h_o_b[1:]
        bc = np.array([-1.901 - (-1.568), 0.9409 - 0.902, 0.0])
        pm = PemModel(zero_model(), noise_b=bc, noise_a=ac)
        h = estimated_noise_filter(pm)
        assert np.allclose(h.b, [1.0, -1.568, 0.902, 0.0], atol=1e-12)
        assert np.allclose(h.a, [-1.901, 0.9409, 0.0], atol=1e-12)
        freqs = np.linspace(0.01, 0.3, 25)
        true_h = TransferFunction(h_o_b, h_o_a, 0)
        assert np.allclose(
            magnitude_response_db(h, freqs),
            magnitude_response_db(true_h, freqs),
            atol=1e-10,
        )

    def test_dc_gain_matches_polynomial_evaluation(self, rng):
        pm = PemModel(zero_model())
        pm.noise_b.value[:] = rng.normal(0.0, 0.2, pm.noise_b.value.shape)
        pm.noise_a.value[:] = rng.normal(0.0, 0.2, pm.noise_a.value.shape)
        h = estimated_noise_filter(pm)
        from difftf.tf_core import frequency_response

        hc_at_1 = np.sum(pm.noise_b.value) / (1.0 + np.sum(pm.noise_a.value))
        assert frequency_response(h, 0.0) == pytest.approx(1.0 / (1.0 + hc_at_1))

    def test_non_minimum_phase_inverse_warns(self):
        pm = PemModel(zero_model(), noise_b=[5.0, 0.0, 0.0], noise_a=[0.0, 0.0])
        with pytest.warns(RuntimeWarning, match="minimum phase"):
            estimated_noise_filter(pm)

    def test_bode_table_with_truth_column(self):
        pm = PemModel(zero_model())
        true_h = TransferFunction([1.0, -1.568, 0.902], [-1.901, 0.9409], 0)
        header, table = bode_magnitude_table(
            estimated_noise_filter(pm), np.linspace(0.01, 0.3, 10), true_h
        )
        assert header == ["frequency", "magnitude_db", "true_magnitude_db"]
        assert table.shape == (10, 3)

    def test_requires_single_output_model(self):
        two_out = BlockModel([MimoTransferFunction(2, 1, 0, 0, 0)])
        with pytest.raises(ValueError, match="single-output"):
            PemModel(two_out)

    def test_requires_single_delay(self):
        with pytest.raises(ValueError, match="one input delay"):
            invert_monic_noise_filter(TransferFunction([1.0], [0.1], 0))
