import numpy as np
import pytest
from oracles import correlate_rows, flip, lag_sums

from difftf.blocks import MimoTransferFunction
from difftf.gradcheck import central_difference, filter_op_gradients, relative_errors
from difftf.tape import Parameter, Tape
from difftf.tf_core import (
    FilterDivergenceError,
    TransferFunction,
    filter_forward,
    filter_rows,
    impulse_response,
    random_stable_tf,
)
from difftf.tf_grad import (
    gapped,
    grad_a_rows,
    grad_b_rows,
    grad_u_rows,
    grad_x_rows,
    sens_a1_rows,
    sens_b0_rows,
    ungapped,
)


def row(x):
    """A 1-D series as the single row of a (1, T) batch."""
    return np.asarray(x, dtype=float)[np.newaxis, :]


def largest_lag(tf):
    return max(tf.n_k + tf.n_b, tf.n_a)


def adjoint_rows(tf, g_rows):
    """w = A^-T g: the reverse all-pole pass the filter op's vjp runs per cell."""
    return grad_u_rows(TransferFunction([1.0], tf.a), g_rows)


def sensitivity_form(tf, x_rows, g_rows):
    """Oracle: b, a and x adjoints of sum(g * G(q)x) in sensitivity form,
    one dot per row per lag and a full reverse-time filter pass for x."""
    T = x_rows.shape[1]
    sig_b = sens_b0_rows(tf, x_rows)
    sig_a = sens_a1_rows(tf, filter_rows(tf, x_rows))
    b_bar = np.zeros(tf.n_b + 1)
    a_bar = np.zeros(tf.n_a)
    for g, sb, sa in zip(g_rows, sig_b, sig_a):
        for j in range(min(tf.n_b + 1, T)):
            b_bar[j] += np.dot(g[j:], sb[: T - j])
        for j in range(1, min(tf.n_a, T) + 1):
            a_bar[j - 1] += np.dot(g[j - 1 :], sa[: T - j + 1])
    return b_bar, a_bar, grad_u_rows(tf, g_rows)


def rel_gap(got, expected):
    return np.abs(got - expected).max(initial=0.0) / max(np.abs(expected).max(initial=0.0), 1e-300)


def weighted_loss(tf, u, w):
    return float(np.dot(w, filter_forward(tf, u)))


def cross_correlation_grad_u(tf, y_bar):
    """Direct O(T^2) evaluation of u_bar_tau = sum_{t>=tau} y_bar_t g_{t-tau}."""
    T = len(y_bar)
    g = impulse_response(tf, T)
    out = np.zeros(T)
    for tau in range(T):
        for t in range(tau, T):
            out[tau] += y_bar[t] * g[t - tau]
    return out


class TestSensB0:
    def test_fir_case_is_input(self, rng):
        tf = TransferFunction([0.5, 0.3, -0.2], [], 0)
        u = rng.normal(0.0, 1.0, 20)
        assert np.array_equal(sens_b0_rows(tf, row(u))[0], u)

    def test_geometric_on_impulse(self):
        tf = TransferFunction([2.0], [-0.5], 0)
        delta = np.zeros(5)
        delta[0] = 1.0
        assert np.allclose(sens_b0_rows(tf, row(delta))[0], [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_equals_all_pole_filtering(self, rng):
        tf = random_stable_tf(rng, 4, 3, n_k=2)
        u = rng.normal(0.0, 1.0, 40)
        expected = filter_forward(TransferFunction([1.0], tf.a, tf.n_k), u)
        assert np.array_equal(sens_b0_rows(tf, row(u))[0], expected)


class TestSensA1:
    def test_zero_output_gives_zero(self):
        tf = TransferFunction([1.0], [-0.5], 0)
        assert np.array_equal(sens_a1_rows(tf, row(np.zeros(10)))[0], np.zeros(10))

    def test_trivial_denominator_is_delayed_negation(self, rng):
        tf = TransferFunction([1.0], [], 0)
        y = rng.normal(0.0, 1.0, 12)
        expected = -np.concatenate([[0.0], y[:-1]])
        assert np.array_equal(sens_a1_rows(tf, row(y))[0], expected)

    def test_equals_negated_delayed_all_pole(self, rng):
        tf = random_stable_tf(rng, 2, 4)
        y = filter_forward(tf, rng.normal(0.0, 1.0, 30))
        expected = -filter_forward(TransferFunction([1.0], tf.a, 1), y)
        assert np.array_equal(sens_a1_rows(tf, row(y))[0], expected)


class TestGradB:
    def test_fir_case_is_cross_correlation(self, rng):
        tf = TransferFunction([0.2, 0.3, 0.4], [], 0)
        u = rng.normal(0.0, 1.0, 25)
        w = rng.normal(0.0, 1.0, 25)  # with A = 1 the adjoint w is the output gradient
        b_bar = grad_b_rows(gapped(row(w), 2), gapped(row(u), 2), tf.n_b, tf.n_k)
        for j in range(3):
            assert b_bar[j] == pytest.approx(np.dot(w[j:], u[: 25 - j]), rel=1e-13)

    def test_delta_adjoint_extracts_leading_sensitivity(self, rng):
        tf = random_stable_tf(rng, 3, 2)
        u = rng.normal(0.0, 1.0, 10)
        w = np.zeros(10)
        w[0] = 1.0
        sig = sens_b0_rows(tf, row(u))[0]
        b_bar, _, _ = filter_op_gradients(tf, u, w)
        assert b_bar[0] == sig[0]
        assert np.array_equal(b_bar[1:], np.zeros(tf.n_b))

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            tf = random_stable_tf(rng, rng.integers(0, 7), rng.integers(0, 7),
                                  rng.integers(0, 2), max_radius=0.9)
            u = rng.normal(0.0, 1.0, 32)
            w = rng.normal(0.0, 1.0, 32)
            pad = largest_lag(tf)
            w_gap = gapped(adjoint_rows(tf, row(w)), pad)
            b_bar = grad_b_rows(w_gap, gapped(row(u), pad), tf.n_b, tf.n_k)
            fd = central_difference(
                lambda b: weighted_loss(TransferFunction(b, tf.a, tf.n_k), u, w), tf.b
            )
            assert relative_errors(b_bar, fd).max() < 1e-6


class TestGradA:
    def test_delta_adjoint(self, rng):
        tf = random_stable_tf(rng, 2, 3)
        u = rng.normal(0.0, 1.0, 12)
        y = filter_forward(tf, u)
        sig = sens_a1_rows(tf, row(y))[0]
        w = np.zeros(12)
        w[0] = 1.0
        _, a_bar, _ = filter_op_gradients(tf, u, w)
        assert a_bar[0] == sig[0]
        assert np.array_equal(a_bar[1:], np.zeros(tf.n_a - 1))

    def test_zero_forward_output_gives_zero(self):
        tf = TransferFunction([1.0], [-0.4, 0.1], 0)
        w = gapped(adjoint_rows(tf, row(np.ones(15))), 2)
        a_bar = grad_a_rows(w, gapped(np.zeros((1, 15)), 2), 2)
        assert np.array_equal(a_bar, np.zeros(2))

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            n_a = int(rng.integers(1, 7))
            tf = random_stable_tf(rng, rng.integers(0, 7), n_a,
                                  rng.integers(0, 2), max_radius=0.9)
            u = rng.normal(0.0, 1.0, 32)
            w = rng.normal(0.0, 1.0, 32)
            y = filter_forward(tf, u)
            pad = largest_lag(tf)
            a_bar = grad_a_rows(gapped(adjoint_rows(tf, row(w)), pad), gapped(row(y), pad), n_a)
            fd = central_difference(
                lambda a: weighted_loss(TransferFunction(tf.b, a, tf.n_k), u, w), tf.a
            )
            assert relative_errors(a_bar, fd).max() < 1e-6


class TestGradU:
    def test_identity_filter_passes_adjoint_through(self, rng):
        tf = TransferFunction([1.0], [], 0)
        w = rng.normal(0.0, 1.0, 15)
        assert np.array_equal(grad_u_rows(tf, row(w))[0], w)

    def test_unit_delay_shifts_adjoint_forward(self, rng):
        tf = TransferFunction([1.0], [], 1)
        w = rng.normal(0.0, 1.0, 10)
        u_bar = grad_u_rows(tf, row(w))[0]
        assert np.array_equal(u_bar[:-1], w[1:])
        assert u_bar[-1] == 0.0

    def test_matches_quadratic_cross_correlation(self, rng):
        for _ in range(10):
            tf = random_stable_tf(rng, rng.integers(0, 6), rng.integers(0, 6),
                                  rng.integers(0, 3))
            w = rng.normal(0.0, 1.0, 64)
            fast = grad_u_rows(tf, row(w))[0]
            slow = cross_correlation_grad_u(tf, w)
            scale = max(1e-30, np.abs(slow).max())
            assert np.abs(fast - slow).max() / scale < 1e-10

    def test_flip_trick_identity(self, rng):
        tf = random_stable_tf(rng, 3, 2, 1)
        w = rng.normal(0.0, 1.0, 50)
        assert np.array_equal(grad_u_rows(tf, row(w))[0], flip(filter_forward(tf, flip(w))))

    def test_adjoint_linearity(self, rng):
        tf = random_stable_tf(rng, 3, 3)
        w1 = rng.normal(0.0, 1.0, 30)
        w2 = rng.normal(0.0, 1.0, 30)
        lhs = grad_u_rows(tf, row(2.0 * w1 - 0.5 * w2))[0]
        rhs = 2.0 * grad_u_rows(tf, row(w1))[0] - 0.5 * grad_u_rows(tf, row(w2))[0]
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_divergence_reports_t_in_forward_time(self):
        # the adjoint of g = delta at (row 1, t = 1999) through the pole 1.5 is
        # 1.5**(1999 - t), first non-finite (going backwards) at 1999 - 1751
        g = np.zeros((2, 2000))
        g[1, -1] = 1.0
        with pytest.raises(FilterDivergenceError) as err:
            grad_u_rows(TransferFunction([1.0], [-1.5]), g)
        assert (err.value.t_index, err.value.batch_index) == (248, 1)


class TestShiftIdentities:
    def test_sigma_b_shifts_bit_for_bit(self, rng):
        """Filtering the j-delayed input equals shifting sigma_b0 exactly."""
        tf = random_stable_tf(rng, 4, 3, n_k=1)
        u = rng.normal(0.0, 1.0, 40)
        sig0 = sens_b0_rows(tf, row(u))[0]
        for j in range(1, tf.n_b + 1):
            delayed = np.concatenate([np.zeros(j), u[:-j]])
            sig_j = sens_b0_rows(tf, row(delayed))[0]
            shifted = np.concatenate([np.zeros(j), sig0[:-j]])
            assert np.array_equal(sig_j, shifted)

    def test_sigma_a_shifts_bit_for_bit(self, rng):
        """sigma_aj from the same filtering program on delayed y equals the
        shift of sigma_a1 exactly; a mathematically equal program with the
        delay folded differently only matches to rounding."""
        tf = random_stable_tf(rng, 2, 4)
        y = filter_forward(tf, rng.normal(0.0, 1.0, 40))
        sig1 = sens_a1_rows(tf, row(y))[0]
        for j in range(2, tf.n_a + 1):
            delayed = np.concatenate([np.zeros(j - 1), y[: -(j - 1)]])
            sig_j = sens_a1_rows(tf, row(delayed))[0]
            shifted = np.concatenate([np.zeros(j - 1), sig1[: 40 - (j - 1)]])
            assert np.array_equal(sig_j, shifted)
            refolded = -filter_forward(
                TransferFunction([1.0], tf.a, 0),
                np.concatenate([np.zeros(j), y[:-j]]),
            )
            assert np.allclose(refolded, shifted, rtol=1e-12, atol=1e-14)


class TestGradientSuite:
    def test_random_stable_filters_all_three_gradients(self, rng):
        """FD agreement of the filter op across orders 0..8 and T in {8, 32, 128}."""
        for T in (8, 32, 128):
            for _ in range(4):
                n_b = int(rng.integers(0, min(8, T - 1) + 1))
                n_a = int(rng.integers(0, min(8, T - 1) + 1))
                tf = random_stable_tf(rng, n_b, n_a, rng.integers(0, 2), max_radius=0.9)
                u = rng.normal(0.0, 1.0, T)
                w = rng.normal(0.0, 1.0, T)
                b_bar, a_bar, u_bar = filter_op_gradients(tf, u, w)

                fd_b = central_difference(
                    lambda b: weighted_loss(TransferFunction(b, tf.a, tf.n_k), u, w),
                    tf.b,
                )
                assert relative_errors(b_bar, fd_b).max() <= 1e-5

                if n_a:
                    fd_a = central_difference(
                        lambda a: weighted_loss(
                            TransferFunction(tf.b, a, tf.n_k), u, w
                        ),
                        tf.a,
                    )
                    assert relative_errors(a_bar, fd_a).max() <= 1e-5

                fd_u = central_difference(lambda uu: weighted_loss(tf, uu, w), u)
                assert relative_errors(u_bar, fd_u).max() <= 1e-5


class TestFilterGradients:
    """The filter op's vjp hands back all three adjoints of the row kernels."""

    def test_bundles_all_three_adjoints(self, rng):
        tf = random_stable_tf(rng, 3, 2, 1)
        u = rng.normal(0.0, 1.0, 40)
        w = rng.normal(0.0, 1.0, 40)
        b_bar, a_bar, u_bar = filter_op_gradients(tf, u, w)
        b_ref, a_ref, u_ref = sensitivity_form(tf, row(u), row(w))
        assert rel_gap(b_bar, b_ref) <= 1e-12
        assert rel_gap(a_bar, a_ref) <= 1e-12
        assert rel_gap(u_bar, u_ref[0]) <= 1e-12
        assert b_bar.shape == tf.b.shape
        assert a_bar.shape == tf.a.shape
        assert np.all(np.isfinite(u_bar))

    def test_fir_case_has_empty_a_bar(self, rng):
        tf = TransferFunction([0.3, 0.1], [], 0)
        u = rng.normal(0.0, 1.0, 10)
        _, a_bar, _ = filter_op_gradients(tf, u, np.ones(10))
        assert a_bar.shape == (0,)


# (n_b, n_a, n_k) on T = 12: n_k + n_b = T - 1 makes the zero padding exactly
# as long as the largest lag; the last case makes n_a the largest lag
GRID_ORDERS = [(11, 3, 0), (10, 3, 1), (9, 3, 2), (2, 11, 1)]


def random_grid(rng, n_b, n_a, n_k):
    """A 2x2 grid of random stable cells."""
    block = MimoTransferFunction(2, 2, n_b, n_a, n_k)
    for o in range(2):
        for i in range(2):
            tf = random_stable_tf(rng, n_b, n_a, n_k, max_radius=0.9)
            block.b.value[o, i] = tf.b
            block.a.value[o, i] = tf.a
    return block


def grid_gradients(block, u, g):
    """b, a and u adjoints of sum(g * block(u)) through the recorded op."""
    tape = Tape()
    u_param = Parameter(u)
    y = block.apply(tape, tape.leaf(u_param))
    loss = tape.custom(float(np.sum(g * y.value)), (y,), lambda s: (s * g,), op="weighted")
    tape.backward(loss)
    return block.b.grad, block.a.grad, u_param.grad


class TestGridBackward:
    """The batched adjoint-form vjp of a 2x2 grid on 3 rows."""

    def test_gapped_round_trip_and_layout(self, rng):
        rows = rng.normal(0.0, 1.0, (3, 5))
        flat = gapped(rows, 2)
        assert flat.shape == (3 * 7 + 2,)
        assert np.array_equal(ungapped(flat, 3, 2), rows)
        zeros = np.ones(flat.size, dtype=bool)
        zeros[2:].reshape(3, 7)[:, :5] = False
        assert np.array_equal(flat[zeros], np.zeros(3 * 2 + 2))

    def test_input_adjoint_correlation_reads_zeros_past_every_row(self, rng):
        tf = random_stable_tf(rng, 3, 0, 2)
        w = rng.normal(0.0, 1.0, (3, 9))
        got = ungapped(grad_x_rows(tf, gapped(w, largest_lag(tf))), 3, largest_lag(tf))
        assert rel_gap(got, grad_u_rows(tf, w)) <= 1e-14

    @pytest.mark.parametrize("n_b, n_a, n_k", GRID_ORDERS)
    def test_matches_sensitivity_form_oracle(self, rng, n_b, n_a, n_k):
        block = random_grid(rng, n_b, n_a, n_k)
        u = rng.normal(0.0, 1.0, (3, 12, 2))
        g = rng.normal(0.0, 1.0, (3, 12, 2))
        b_bar, a_bar, u_bar = grid_gradients(block, u, g)
        u_ref = np.zeros_like(u)
        for o in range(2):
            for i in range(2):
                b_ref, a_ref, x_ref = sensitivity_form(block.cell(o, i), u[:, :, i], g[:, :, o])
                assert rel_gap(b_bar[o, i], b_ref) <= 1e-12
                assert rel_gap(a_bar[o, i], a_ref) <= 1e-12
                u_ref[:, :, i] += x_ref
        assert rel_gap(u_bar, u_ref) <= 1e-12

    @pytest.mark.parametrize("n_b, n_a, n_k", GRID_ORDERS)
    def test_matches_finite_differences(self, rng, n_b, n_a, n_k):
        block = random_grid(rng, n_b, n_a, n_k)
        u = rng.normal(0.0, 1.0, (3, 12, 2))
        g = rng.normal(0.0, 1.0, (3, 12, 2))
        b_bar, a_bar, u_bar = (v.copy() for v in grid_gradients(block, u, g))

        def loss_with(param, value):
            saved = param.value
            param.value = value
            try:
                return float(np.sum(g * block.simulate(u)))
            finally:
                param.value = saved

        fd_b = central_difference(lambda b: loss_with(block.b, b), block.b.value)
        fd_a = central_difference(lambda a: loss_with(block.a, a), block.a.value)
        fd_u = central_difference(lambda uu: float(np.sum(g * block.simulate(uu))), u)
        assert relative_errors(b_bar, fd_b).max() <= 1e-5
        assert relative_errors(a_bar, fd_a).max() <= 1e-5
        assert relative_errors(u_bar, fd_u).max() <= 1e-5


class TestLagKernelsAgainstTermByTermSums:
    """grad_b_rows, grad_a_rows and grad_x_rows on gapped buffers against the
    lagged sums written out term by term, for 1 to 25 taps: numpy's correlate
    changes method between 11 and 12 taps, and grad_x_rows splits at 11."""

    T = 40

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n_k", [0, 1, 2])
    def test_grad_b_rows(self, rng, batch, n_k):
        for taps in range(1, 26):
            pad = n_k + taps - 1
            w, x = rng.normal(0.0, 1.0, (2, batch, self.T))
            got = grad_b_rows(gapped(w, pad), gapped(x, pad), taps - 1, n_k)
            want = lag_sums(w, x, range(n_k, n_k + taps))
            assert rel_gap(got, want) <= 1e-13, taps

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("extra_pad", [0, 1, 2])
    def test_grad_a_rows(self, rng, batch, extra_pad):
        # a grid pads by its largest lag, which can be n_k + n_b > n_a
        for taps in range(1, 26):
            pad = taps + extra_pad
            w, y = rng.normal(0.0, 1.0, (2, batch, self.T))
            got = grad_a_rows(gapped(w, pad), gapped(y, pad), taps)
            assert rel_gap(got, -lag_sums(w, y, range(1, taps + 1))) <= 1e-13, taps

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n_k", [0, 1, 2])
    def test_grad_x_rows(self, rng, batch, n_k):
        for taps in range(1, 26):
            tf = TransferFunction(rng.normal(0.0, 1.0, taps), [], n_k)
            pad = largest_lag(tf)
            w = rng.normal(0.0, 1.0, (batch, self.T))
            got = ungapped(grad_x_rows(tf, gapped(w, pad)), batch, pad)
            assert rel_gap(got, correlate_rows(w, tf.full_numerator())) <= 1e-13, taps
