import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftf.tf_core import (
    FilterDivergenceError,
    TransferFunction,
    convolve_truncated,
    filter_forward,
    filter_forward_reference,
    flip,
    frequency_response,
    impulse_response,
    random_stable_tf,
)


def brute_force_convolution(g, u):
    """Nested-loop oracle for the truncated convolution."""
    T = len(g)
    out = np.zeros(T)
    for i in range(T):
        for j in range(max(0, i + 1 - T), min(i, T - 1) + 1):
            out[i] += g[j] * u[i - j]
    return out


class TestFilterForward:
    def test_identity_filter(self):
        tf = TransferFunction([1.0], [], 0)
        assert np.array_equal(filter_forward(tf, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_pure_unit_delay_zero_history(self):
        tf = TransferFunction([1.0], [], 1)
        assert np.array_equal(filter_forward(tf, [1.0, 2.0, 3.0]), [0.0, 1.0, 2.0])

    def test_first_order_geometric_response(self):
        tf = TransferFunction([1.0], [-0.5], 0)
        y = filter_forward(tf, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(y, [1.0, 0.5, 0.25, 0.125], rtol=0, atol=1e-15)

    def test_matches_convolution_oracle(self, rng):
        for _ in range(20):
            tf = random_stable_tf(rng, rng.integers(0, 6), rng.integers(0, 6), rng.integers(0, 3))
            u = rng.normal(0.0, 1.0, 64)
            y = filter_forward(tf, u)
            y_conv = convolve_truncated(impulse_response(tf, 64), u)
            assert np.allclose(y, y_conv, rtol=1e-12, atol=1e-12 * np.abs(y).max())

    def test_matches_reference_difference_equation(self, rng):
        for _ in range(10):
            tf = random_stable_tf(rng, rng.integers(0, 5), rng.integers(0, 5), rng.integers(0, 2))
            u = rng.normal(0.0, 1.0, 50)
            assert np.allclose(
                filter_forward(tf, u), filter_forward_reference(tf, u), rtol=1e-12
            )

    def test_multiplication_count_is_linear_in_orders(self, rng):
        T = 37
        for n_b, n_a in [(0, 0), (3, 2), (8, 8)]:
            tf = random_stable_tf(rng, n_b, n_a)
            _, mults = filter_forward_reference(
                tf, rng.normal(0.0, 1.0, T), count_mults=True
            )
            assert mults == T * (n_b + n_a + 1)

    def test_linearity(self, rng):
        tf = random_stable_tf(rng, 3, 3)
        u1 = rng.normal(0.0, 1.0, 40)
        u2 = rng.normal(0.0, 1.0, 40)
        alpha, beta = 1.7, -0.3
        lhs = filter_forward(tf, alpha * u1 + beta * u2)
        rhs = alpha * filter_forward(tf, u1) + beta * filter_forward(tf, u2)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_time_invariance_under_zero_history(self, rng):
        tf = random_stable_tf(rng, 2, 3)
        u = rng.normal(0.0, 1.0, 50)
        k = 7
        delayed_u = np.concatenate([np.zeros(k), u[:-k]])
        y = filter_forward(tf, u)
        y_delayed = filter_forward(tf, delayed_u)
        assert np.allclose(y_delayed, np.concatenate([np.zeros(k), y[:-k]]), atol=1e-14)

    def test_n_k_equals_prepended_zeros(self, rng):
        u = rng.normal(0.0, 1.0, 30)
        tf = TransferFunction([0.4, -0.2, 0.1], [-0.3, 0.2], n_k=2)
        tf0 = TransferFunction([0.0, 0.0, 0.4, -0.2, 0.1], [-0.3, 0.2], n_k=0)
        assert np.array_equal(filter_forward(tf, u), filter_forward(tf0, u))

    def test_batched_rows_filtered_independently(self, rng):
        tf = random_stable_tf(rng, 2, 2)
        u = rng.normal(0.0, 1.0, (4, 25))
        batched = filter_forward(tf, u)
        for k in range(4):
            assert np.array_equal(batched[k], filter_forward(tf, u[k]))

    def test_divergence_raises_with_index(self):
        tf = TransferFunction([1.0], [-2.0], 0)  # pole at 2, explodes
        with pytest.raises(FilterDivergenceError) as err:
            filter_forward(tf, np.ones(2000))
        assert err.value.t_index >= 0

    def test_rows_in_same_shape_out_other_ndim_rejected(self, rng):
        tf = random_stable_tf(rng, 2, 2)
        ops = (
            lambda x: filter_forward(tf, x),
            lambda x: convolve_truncated(impulse_response(tf, x.shape[-1]), x),
            flip,
        )
        for op in ops:
            for shape in ((9,), (3, 9)):
                assert op(rng.normal(0.0, 1.0, shape)).shape == shape
            with pytest.raises(ValueError):
                op(rng.normal(0.0, 1.0, (2, 3, 9)))


class TestImpulseResponse:
    def test_fir_identity(self):
        g = impulse_response(TransferFunction([1.0], [], 0), 4)
        assert np.array_equal(g, [1.0, 0.0, 0.0, 0.0])

    def test_geometric_series(self):
        g = impulse_response(TransferFunction([1.0], [-0.5], 0), 4)
        assert np.allclose(g, [1.0, 0.5, 0.25, 0.125], atol=1e-15)

    def test_equals_filtered_delta(self, rng):
        tf = TransferFunction([0.5, 0.3], [-0.2], 0)
        T = 17
        delta = np.zeros(T)
        delta[0] = 1.0
        assert np.array_equal(impulse_response(tf, T), filter_forward(tf, delta))

    def test_leading_sample_is_b0_without_delay(self, rng):
        for _ in range(5):
            tf = random_stable_tf(rng, 3, 4, n_k=0)
            assert impulse_response(tf, 8)[0] == pytest.approx(tf.b[0], abs=1e-15)


class TestConvolveTruncated:
    def test_identity_kernel(self):
        assert np.array_equal(
            convolve_truncated([1.0, 0.0, 0.0], [5.0, 6.0, 7.0]), [5.0, 6.0, 7.0]
        )

    def test_delay_kernel(self):
        assert np.array_equal(
            convolve_truncated([0.0, 1.0, 0.0], [5.0, 6.0, 7.0]), [0.0, 5.0, 6.0]
        )

    def test_matches_nested_loop_oracle(self, rng):
        g = rng.normal(0.0, 1.0, 32)
        u = rng.normal(0.0, 1.0, 32)
        assert np.allclose(convolve_truncated(g, u), brute_force_convolution(g, u),
                           rtol=1e-13, atol=1e-13)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            convolve_truncated([1.0, 2.0], [1.0, 2.0, 3.0])


class TestFlip:
    def test_simple(self):
        assert np.array_equal(flip([1.0, 2.0, 3.0]), [3.0, 2.0, 1.0])

    def test_length_one(self):
        assert np.array_equal(flip([4.0]), [4.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, values):
        x = np.asarray(values)
        assert np.array_equal(flip(flip(x)), x)


class TestOracleEquivalence:
    def test_filter_equals_convolution_up_to_256(self, rng):
        for T in (8, 64, 256):
            for _ in range(5):
                tf = random_stable_tf(rng, rng.integers(0, 9), rng.integers(0, 9))
                u = rng.normal(0.0, 1.0, T)
                y = filter_forward(tf, u)
                y_conv = convolve_truncated(impulse_response(tf, T), u)
                scale = max(1e-30, float(np.abs(y).max()))
                assert np.abs(y - y_conv).max() / scale < 1e-10


class TestFrequencyResponse:
    def test_dc_gain_of_fir(self):
        tf = TransferFunction([1.0, 1.0], [], 0)
        assert frequency_response(tf, 0.0) == pytest.approx(2.0)

    def test_delay_has_unit_magnitude(self):
        tf = TransferFunction([1.0], [], 3)
        h = frequency_response(tf, np.linspace(0.01, 0.49, 7))
        assert np.allclose(np.abs(h), 1.0, atol=1e-12)


class TestValidation:
    def test_empty_b_rejected(self):
        with pytest.raises(ValueError):
            TransferFunction([], [], 0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            TransferFunction([1.0], [], -1)

    def test_leading_one_not_stored(self):
        tf = TransferFunction([1.0], [-0.5], 0)
        assert tf.n_a == 1
        assert np.array_equal(tf.full_denominator(), [1.0, -0.5])
