import json

import numpy as np
import pytest

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
    static_nets_forward,
    static_nets_vjp,
)
from difftf.gradcheck import central_difference, relative_errors
from difftf.tape import Tape
from difftf.tf_core import TransferFunction, filter_forward, random_stable_tf


def build_wide_nets(n_b=2, n_a=2, hidden=3, rng=None):
    """Static blocks wider than one channel: a 2-in 3-out net, then three parallel nets."""
    return BlockModel([
        Mlp(2, 4, 3, rng=rng),
        ParallelMlp([Mlp(1, 3, 1, rng=rng) for _ in range(3)]),
    ])


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
        block = MimoTransferFunction(2, 2, 2, 2, 0, rng=rng)
        block.a.value = rng.normal(0.0, 0.2, block.a.value.shape)
        u = rng.normal(0.0, 1.0, (1, 20, 2))
        tape = Tape()
        u_node = tape.input(u)
        out = block.apply(tape, u_node)
        loss = tape.total(tape.square(out))
        tape.backward(loss)
        got = u_node.adjoint

        from difftf.tf_grad import grad_u_rows

        y = block.simulate(u)
        expected = np.zeros_like(u)
        for o in range(2):
            g_o = 2.0 * y[:, :, o]
            for i in range(2):
                expected[:, :, i] += grad_u_rows(block.cell(o, i), g_o)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13)


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
        x_node = tape.input(x)
        tape.backward(tape.total(tape.square(nets.apply(tape, x_node))))
        assert [n.op for n in tape._nodes if n.op not in ("input", "param")] == [
            "mlp", "square", "sum",
        ]
        grads = [p.grad.copy() for _, p in nets.parameters()]
        for k, net in enumerate(nets.nets):
            single = Tape()
            xk = single.input(x[:, :, k : k + 1])
            single.backward(single.total(single.square(net.apply(single, xk))))
            assert np.allclose(
                x_node.adjoint[:, :, k : k + 1], xk.adjoint, rtol=1e-13
            )
            for j, (_, p) in enumerate(net.parameters()):
                assert np.allclose(grads[4 * k + j], p.grad, rtol=1e-13, atol=1e-14)

    def test_static_net_kernel_matches_per_net_time_major_reference(self, rng):
        G, H, I, O = 3, 4, 2, 2
        w1, b1 = rng.normal(size=(G, H, I)), rng.normal(size=(G, H))
        w2, b2 = rng.normal(size=(G, O, H)), rng.normal(size=(G, O))
        x = rng.normal(0.0, 1.0, (2, 30, G * I))
        g = rng.normal(0.0, 1.0, (2, 30, G * O))
        y, xT, hid = static_nets_forward(w1, b1, w2, b2, x)
        bars = static_nets_vjp(w1, w2, xT, hid, g)
        for k in range(G):
            xk = x[:, :, k * I : (k + 1) * I].reshape(-1, I)
            gk = g[:, :, k * O : (k + 1) * O].reshape(-1, O)
            h = np.tanh(xk @ w1[k].T + b1[k])
            z = (gk @ w2[k]) * (1.0 - h * h)
            assert np.allclose(y[:, :, k * O : (k + 1) * O].reshape(-1, O), h @ w2[k].T + b2[k],
                               rtol=1e-12, atol=1e-14)
            for got, want in zip([bar[k] for bar in bars[:4]],
                                 (z.T @ xk, z.sum(axis=0), gk.T @ h, gk.sum(axis=0))):
                assert np.allclose(got, want, rtol=1e-12, atol=1e-13)
            x_bar = bars[4][:, :, k * I : (k + 1) * I].reshape(-1, I)
            assert np.allclose(x_bar, z @ w1[k], rtol=1e-12, atol=1e-13)

    def test_parallel_nets_must_share_hidden_width(self, rng):
        with pytest.raises(ValueError, match="hidden width"):
            ParallelMlp([Mlp(1, 3, 1, rng=rng), Mlp(1, 4, 1, rng=rng)])


class TestSimulate:
    def test_simulate_equals_tape_forward_bit_for_bit_for_every_block_kind(self, rng):
        examples = {
            "tf": MimoTransferFunction(2, 2, 2, 2, 1, rng=rng),
            "mlp": Mlp(2, 4, 2, rng=rng),
            "parallel_mlp": ParallelMlp([Mlp(1, 3, 1, rng=rng) for _ in range(2)]),
            "poly": PolyStatic([[0.1, 1.0, -0.3], [0.0, 0.5, 0.2]]),
        }
        examples["tf"].a.value = rng.normal(0.0, 0.2, examples["tf"].a.value.shape)
        assert set(examples) == set(_BLOCK_KINDS)
        x = rng.normal(0.0, 1.0, (3, 40, 2))
        for kind, block in examples.items():
            tape = Tape()
            on_tape = block.apply(tape, tape.constant(x)).value
            assert np.array_equal(block.simulate(x), on_tape), kind


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
        u = rng.normal(0.0, 1.0, (1, 64, model.in_channels))
        y_ref = rng.normal(0.0, 1.0, (1, 64, model.out_channels))
        named = model.parameters()
        params = [p for _, p in named]

        tape = Tape()
        out = model.apply(tape, tape.constant(u))
        loss = tape.mean(tape.square(tape.sub(tape.constant(y_ref), out)))
        for p in params:
            p.grad = np.zeros_like(p.value)
        tape.backward(loss)

        for name, p in named:
            def f(v, target=p):
                saved = target.value.copy()
                try:
                    target.value = v
                    t2 = Tape()
                    o = model.apply(t2, t2.constant(u))
                    return t2.mean(t2.square(t2.sub(t2.constant(y_ref), o))).value
                finally:
                    target.value = saved

            fd = central_difference(f, p.value)
            assert relative_errors(p.grad, fd).max() <= 1e-5, name

    @pytest.mark.parametrize("builder", [build_wh, build_pwh, build_wide_nets])
    def test_full_model_gradients_pass_finite_differences(self, rng, builder):
        model = builder(n_b=2, n_a=2, hidden=3, rng=rng)
        u = rng.normal(0.0, 1.0, (1, 64, model.in_channels))
        y_ref = rng.normal(0.0, 1.0, (1, 64, model.out_channels))
        named = model.parameters()
        params = [p for _, p in named]

        tape = Tape()
        out = model.apply(tape, tape.constant(u))
        loss = tape.mean(tape.square(tape.sub(tape.constant(y_ref), out)))
        for p in params:
            p.grad = np.zeros_like(p.value)
        tape.backward(loss)

        for name, p in named:
            def f(v, target=p):
                saved = target.value.copy()
                try:
                    target.value = v
                    t2 = Tape()
                    o = model.apply(t2, t2.constant(u))
                    return t2.mean(t2.square(t2.sub(t2.constant(y_ref), o))).value
                finally:
                    target.value = saved

            fd = central_difference(f, p.value)
            assert relative_errors(p.grad, fd).max() <= 1e-5, name


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
        x_node = tape.input(x)
        loss = tape.total(block.apply(tape, x_node))
        tape.backward(loss)
        slope = 1.0 - 0.6 * x + 0.6 * x**2
        assert np.allclose(x_node.adjoint, slope, rtol=1e-13)


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

    def test_width_mismatch_rejected_at_build(self, rng):
        with pytest.raises(ValueError, match="widths differ"):
            BlockModel([
                MimoTransferFunction(2, 1, 1, 1, 0, rng=rng),
                Mlp(1, 3, 1, rng=rng),
            ])


class TestNormalization:
    def test_round_trip(self, rng):
        u = rng.normal(2.0, 3.0, (2, 40, 1))
        y = rng.normal(-1.0, 0.5, (2, 40, 1))
        norm = Normalization.from_data(u, y)
        assert np.allclose(norm.normalize_u(u).mean(), 0.0, atol=1e-12)
        assert np.allclose(norm.normalize_u(u).std(), 1.0, atol=1e-12)
        assert np.allclose(norm.denormalize_y(norm.normalize_y(y)), y, atol=1e-12)
