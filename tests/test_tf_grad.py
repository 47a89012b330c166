import numpy as np
import pytest

from difftf.gradcheck import central_difference, filter_op_gradients, relative_errors
from difftf.tf_core import (
    TransferFunction,
    filter_forward,
    flip,
    impulse_response,
    random_stable_tf,
)
from difftf.tf_grad import grad_a_rows, grad_b_rows, grad_u_rows, sens_a1_rows, sens_b0_rows


def row(x):
    """A 1-D series as the single row of a (1, T) batch."""
    return np.asarray(x, dtype=float)[np.newaxis, :]


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
        w = rng.normal(0.0, 1.0, 25)
        b_bar = grad_b_rows(row(w), sens_b0_rows(tf, row(u)), tf.n_b)
        for j in range(3):
            assert b_bar[j] == pytest.approx(np.dot(w[j:], u[: 25 - j]), rel=1e-13)

    def test_delta_adjoint_extracts_leading_sensitivity(self, rng):
        tf = random_stable_tf(rng, 3, 2)
        u = rng.normal(0.0, 1.0, 10)
        w = np.zeros(10)
        w[0] = 1.0
        sig = sens_b0_rows(tf, row(u))[0]
        b_bar = grad_b_rows(row(w), row(sig), tf.n_b)
        assert b_bar[0] == sig[0]
        assert np.array_equal(b_bar[1:], np.zeros(tf.n_b))

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            tf = random_stable_tf(rng, rng.integers(0, 7), rng.integers(0, 7),
                                  rng.integers(0, 2), max_radius=0.9)
            u = rng.normal(0.0, 1.0, 32)
            w = rng.normal(0.0, 1.0, 32)
            b_bar = grad_b_rows(row(w), sens_b0_rows(tf, row(u)), tf.n_b)
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
        a_bar = grad_a_rows(row(w), row(sig), tf.n_a)
        assert a_bar[0] == sig[0]
        assert np.array_equal(a_bar[1:], np.zeros(tf.n_a - 1))

    def test_zero_forward_output_gives_zero(self):
        tf = TransferFunction([1.0], [-0.4, 0.1], 0)
        w = np.ones(15)
        a_bar = grad_a_rows(row(w), sens_a1_rows(tf, np.zeros((1, 15))), 2)
        assert np.array_equal(a_bar, np.zeros(2))

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            n_a = int(rng.integers(1, 7))
            tf = random_stable_tf(rng, rng.integers(0, 7), n_a,
                                  rng.integers(0, 2), max_radius=0.9)
            u = rng.normal(0.0, 1.0, 32)
            w = rng.normal(0.0, 1.0, 32)
            y = filter_forward(tf, u)
            a_bar = grad_a_rows(row(w), sens_a1_rows(tf, row(y)), n_a)
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
        y = filter_forward(tf, u)
        w = rng.normal(0.0, 1.0, 40)
        b_bar, a_bar, u_bar = filter_op_gradients(tf, u, w)
        assert np.array_equal(b_bar, grad_b_rows(row(w), sens_b0_rows(tf, row(u)), tf.n_b))
        assert np.array_equal(a_bar, grad_a_rows(row(w), sens_a1_rows(tf, row(y)), tf.n_a))
        assert np.array_equal(u_bar, grad_u_rows(tf, row(w))[0])
        assert b_bar.shape == tf.b.shape
        assert a_bar.shape == tf.a.shape
        assert np.all(np.isfinite(u_bar))

    def test_fir_case_has_empty_a_bar(self, rng):
        tf = TransferFunction([0.3, 0.1], [], 0)
        u = rng.normal(0.0, 1.0, 10)
        _, a_bar, _ = filter_op_gradients(tf, u, np.ones(10))
        assert a_bar.shape == (0,)
