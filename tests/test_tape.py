import weakref

import numpy as np
import pytest
from oracles import add, mean, square, sub, total

from difftf.gradcheck import GRAD_TOL, mse_loss_on, parameter_errors
from difftf.blocks import MimoTransferFunction, build_pwh, build_wh
from difftf.pem import PemModel
from difftf.quantized import Quantizer, quantize, quantized_loglik_node
from difftf.tape import Parameter, Tape
from difftf.tf_core import TransferFunction, filter_forward, random_stable_tf


def as3d(x):
    return np.asarray(x, dtype=float)[np.newaxis, :, np.newaxis]


IDENTITY = TransferFunction([1.0], [], 0)


class TestForward:
    def test_single_filter_mean_square_matches_direct_formula(self, rng):
        tf = random_stable_tf(rng, 2, 2)
        u = rng.normal(0.0, 1.0, 30)
        tape = Tape()
        y = MimoTransferFunction.siso(tf).apply(tape, tape.constant(as3d(u)))
        loss = mean(tape, square(tape, y))
        direct = float(np.mean(filter_forward(tf, u) ** 2))
        assert loss.value == pytest.approx(direct, rel=1e-14)

    def test_identity_filter_graph_preserves_loss(self, rng):
        u = rng.normal(0.0, 1.0, 25)
        tape = Tape()
        y = MimoTransferFunction.siso(IDENTITY).apply(tape, tape.constant(as3d(u)))
        loss = mean(tape, square(tape, y))
        assert loss.value == pytest.approx(float(np.mean(u**2)), rel=1e-15)

    def test_wh_graph_equals_manual_sequential_application(self, rng):
        model = build_wh(n_b=3, n_a=2, hidden=5, rng=rng)
        u = rng.normal(0.0, 1.0, (1, 40, 1))
        tape = Tape()
        out = model.apply(tape, tape.constant(u))

        g1, net, g2 = model.blocks
        x = filter_forward(g1.cell(0, 0), u[0, :, 0])
        x = (
            net.w2.value @ np.tanh(net.w1.value @ x[np.newaxis, :] + net.b1.value[:, None])
            + net.b2.value[:, None]
        )[0]
        x = filter_forward(g2.cell(0, 0), x)
        assert np.allclose(out.value[0, :, 0], x, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (1, 4, 1, 1)], ids=["1d", "2d", "4d"])
    def test_constant_of_another_rank_rejected(self, shape):
        with pytest.raises(ValueError, match=r"scalars or \(batch, T, channels\)"):
            Tape().constant(np.ones(shape))

    def test_scalar_loss_required_for_backward(self, rng):
        tape = Tape()
        y = MimoTransferFunction.siso(IDENTITY).apply(tape, tape.constant(as3d(np.ones(4))))
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_second_backward_on_one_tape_rejected(self, rng):
        model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
        tape = Tape()
        loss = mean(tape, square(tape, model.apply(tape, tape.constant(np.ones((1, 8, 1))))))
        tape.backward(loss)
        with pytest.raises(ValueError, match="already ran"):
            tape.backward(loss)

    def test_backward_requires_node_from_this_tape(self):
        tape1, tape2 = Tape(), Tape()
        loss = mean(tape1, tape1.constant(np.ones(3)[np.newaxis, :, np.newaxis]))
        with pytest.raises(ValueError, match="recorded on this tape"):
            tape2.backward(loss)


class TestBackward:
    def test_mean_square_identity_filter_adjoint(self, rng):
        u = rng.normal(0.0, 1.0, 20)
        tape = Tape()
        u_param = Parameter(as3d(u))
        y = MimoTransferFunction.siso(IDENTITY).apply(tape, tape.leaf(u_param))
        loss = mean(tape, square(tape, y))
        tape.backward(loss)
        assert np.allclose(u_param.grad[0, :, 0], 2.0 * u / 20, rtol=1e-14)

    def test_fan_out_adjoints_accumulate(self, rng):
        tf1 = random_stable_tf(rng, 2, 1)
        tf2 = random_stable_tf(rng, 1, 2)
        u = rng.normal(0.0, 1.0, 16)
        tape = Tape()
        u_param = Parameter(as3d(u))
        u_node = tape.leaf(u_param)
        y = add(
            tape,
            MimoTransferFunction.siso(tf1).apply(tape, u_node),
            MimoTransferFunction.siso(tf2).apply(tape, u_node),
        )
        loss = total(tape, square(tape, y))
        tape.backward(loss)
        combined = u_param.grad

        # single-branch check: gradient of each branch alone sums to the whole
        t_a = Tape()
        u_a = Parameter(as3d(u))
        s = MimoTransferFunction.siso(tf1).apply(t_a, t_a.leaf(u_a))
        # frozen copy of the other branch output as a constant
        other = filter_forward(tf2, u)
        yy = add(t_a, s, t_a.constant(as3d(other)))
        t_a.backward(total(t_a, square(t_a, yy)))
        g_a = u_a.grad

        t_b = Tape()
        u_b = Parameter(as3d(u))
        s = MimoTransferFunction.siso(tf2).apply(t_b, t_b.leaf(u_b))
        other = filter_forward(tf1, u)
        yy = add(t_b, t_b.constant(as3d(other)), s)
        t_b.backward(total(t_b, square(t_b, yy)))
        g_b = u_b.grad

        assert np.allclose(combined, g_a + g_b, rtol=1e-12, atol=1e-13)

    def test_one_adjoint_array_shared_by_two_parents_stays_intact(self, rng):
        shared = as3d(rng.normal(0.0, 1.0, 6))
        before = shared.copy()
        p1, p2 = Parameter(as3d(rng.normal(0.0, 1.0, 6))), Parameter(as3d(rng.normal(0.0, 1.0, 6)))
        tape = Tape()
        x1, x2 = tape.leaf(p1), tape.leaf(p2)
        extra = total(tape, x1)  # swept after the shared node: x1 gets a second term
        dot = tape.custom(float(np.sum(shared * (x1.value + x2.value))), (x1, x2),
                          lambda g: (shared, shared), op="dot")  # g is 1 below
        tape.backward(add(tape, dot, extra))
        assert np.array_equal(p1.grad, before + 1.0)
        assert np.array_equal(p2.grad, before)
        assert np.array_equal(shared, before)

    def test_full_wh_gradients_match_finite_differences(self, rng):
        model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
        u = rng.normal(0.0, 1.0, (1, 48, 1))
        y_ref = rng.normal(0.0, 1.0, (1, 48, 1))
        named = model.parameters()
        errs = parameter_errors([p for _, p in named], mse_loss_on(model, u, y_ref))
        for (name, _), err in zip(named, errs):
            assert err <= 1e-5, name

    def test_gradient_of_sum_equals_sum_of_gradients(self, rng):
        grid = MimoTransferFunction.siso(random_stable_tf(rng, 2, 2))
        u1 = as3d(rng.normal(0.0, 1.0, 20))
        u2 = as3d(rng.normal(0.0, 1.0, 20))

        def grad_of(us):
            tape = Tape()
            losses = [
                total(tape, square(tape, grid.apply(tape, tape.constant(u))))
                for u in us
            ]
            loss = losses[0]
            for extra in losses[1:]:
                loss = add(tape, loss, extra)
            grid.b.grad = np.zeros_like(grid.b.value)
            tape.backward(loss)
            return grid.b.grad.copy()

        assert np.allclose(grad_of([u1, u2]), grad_of([u1]) + grad_of([u2]),
                           rtol=1e-12, atol=1e-14)

    def test_detached_subgraph_gets_zero_gradient(self, rng):
        grid = MimoTransferFunction.siso(random_stable_tf(rng, 2, 2))
        b, a = grid.b, grid.a
        u = as3d(rng.normal(0.0, 1.0, 20))
        tape = Tape()
        y = grid.apply(tape, tape.constant(u))
        detached = tape.constant(y.value.copy())  # cut the graph here
        loss = mean(tape, square(tape, detached))
        b.grad = np.ones_like(b.value)
        a.grad = np.ones_like(a.value)
        tape.backward(loss)
        assert np.array_equal(b.grad, np.zeros_like(b.value))
        assert np.array_equal(a.grad, np.zeros_like(a.value))

    def test_repeated_runs_bit_for_bit_deterministic(self, rng):
        model = build_wh(n_b=3, n_a=3, hidden=4, rng=rng)
        u = rng.normal(0.0, 1.0, (2, 30, 1))
        y_ref = rng.normal(0.0, 1.0, (2, 30, 1))
        params = [p for _, p in model.parameters()]

        def run():
            tape = Tape()
            out = model.apply(tape, tape.constant(u))
            loss = mean(tape, square(tape, sub(tape, tape.constant(y_ref), out)))
            for p in params:
                p.grad = np.zeros_like(p.value)
            tape.backward(loss)
            return loss.value, [p.grad.copy() for p in params]

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        for x, y in zip(g1, g2):
            assert np.array_equal(x, y)


def _pwh_mse(rng):
    model = build_pwh(n_b=3, n_a=3, hidden=4, rng=rng)
    u = rng.normal(0.0, 1.0, (3, 40, 1))
    y = rng.normal(0.0, 1.0, (3, 40, 1))
    return [p for _, p in model.parameters()], mse_loss_on(model, u, y)


def _wh_pem(rng):
    pm = PemModel(build_wh(n_b=2, n_a=2, hidden=3, rng=rng), noise_n_b=2, noise_n_a=2)
    pm.noise_b.value = rng.normal(0.0, 0.1, pm.noise_b.value.shape)
    pm.noise_a.value = rng.normal(0.0, 0.1, pm.noise_a.value.shape)
    u = rng.normal(0.0, 1.0, (1, 40, 1))
    y = rng.normal(0.0, 1.0, (1, 40, 1))
    return [p for _, p in pm.parameters()], lambda tape: pm.pem_loss_node(tape, u, y)


def _pwh_quantized(rng):
    model = build_pwh(n_b=2, n_a=2, hidden=3, rng=rng)
    u = rng.normal(0.0, 1.0, (2, 40, 1))
    qz = Quantizer.uniform(12, -2.0, 2.0)
    lo, hi = qz.bin_edges(quantize(model.simulate(u) + rng.normal(0.0, 0.2, (2, 40, 1)), qz))
    log_sigma = Parameter(np.log(0.2), "log_sigma")

    def loss_on(tape):
        out = model.apply(tape, tape.constant(u))
        return quantized_loglik_node(tape, out, lo, hi, log_sigma)

    return [p for _, p in model.parameters()] + [log_sigma], loss_on


class TestRelease:
    @pytest.mark.parametrize("case", [_pwh_mse, _wh_pem, _pwh_quantized])
    def test_sweep_drops_custom_vjps_and_adjoints_and_keeps_gradients(self, rng, case):
        params, loss_on = case(rng)
        tape = Tape()
        loss = loss_on(tape)
        ops = [n.op for n in tape._nodes]
        values = [n.value for n in tape._nodes]
        copies = [np.copy(v) for v in values]
        for p in params:
            p.grad = np.zeros_like(p.value)
        tape.backward(loss)

        custom = [n for n in tape._nodes if n.parents]
        assert custom and all(n.vjp is None and n.adjoint is None for n in custom)
        assert all(n.adjoint is not None for _, n in tape._leaves.values())
        assert [n.op for n in tape._nodes] == ops
        for node, value, copy in zip(tape._nodes, values, copies):
            assert node.value is value and np.array_equal(value, copy)
        with pytest.raises(ValueError, match="already ran"):
            tape.backward(loss)

        # the released tape's gradients are those that pass gradcheck
        grads = [p.grad.copy() for p in params]
        assert max(parameter_errors(params, loss_on)) <= GRAD_TOL
        for p, g in zip(params, grads):
            assert np.array_equal(p.grad, g)

    def test_activations_a_vjp_saved_are_freed_before_the_next_node_runs(self):
        p = Parameter(np.ones(3), "p")
        tape = Tape()
        x = tape.leaf(p)
        seen = []

        def first_vjp(g):
            seen.append(saved_ref())
            return (2.0 * g,)

        first = tape.custom(2.0 * x.value, (x,), first_vjp, op="first")
        saved = np.arange(3.0)  # an activation only the second node's vjp holds
        saved_ref = weakref.ref(saved)
        second = tape.custom(float(np.sum(saved * first.value)), (first,),
                             lambda g, saved=saved: (g * saved,), op="second")
        del saved
        assert saved_ref() is not None
        tape.backward(second)
        assert seen == [None]
        assert np.array_equal(p.grad, 2.0 * np.arange(3.0))
