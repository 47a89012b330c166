import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftf.quantized import (
    LoglikDiagnostics,
    Quantizer,
    bin_probabilities,
    log_phi_cdf_diff,
    phi_cdf,
    quantize,
    quantized_loglik,
    quantized_loglik_terms,
)

TWELVE_BIN = Quantizer.uniform(12, -1.0, 1.0)


def mp_log_phi_diff(l, u, dps=60):
    """High-precision oracle for log(Phi(u) - Phi(l)).

    Works on upper-tail complements Q(x) = erfc(x / sqrt(2)) / 2, reflected so
    both bounds are nonnegative; Q is then far from 1 and fixed-precision
    subtraction cannot cancel catastrophically.
    """
    if u <= 0:
        l, u = -u, -l
    with mpmath.workdps(dps):
        sqrt2 = mpmath.sqrt(2)

        def upper_tail(x):
            if x == -np.inf:
                return mpmath.mpf(1)
            if x == np.inf:
                return mpmath.mpf(0)
            return mpmath.erfc(mpmath.mpf(x) / sqrt2) / 2

        return float(mpmath.log(upper_tail(l) - upper_tail(u)))


class TestQuantize:
    def test_zero_maps_to_bin_five(self):
        # 0 lies in (q_5, q_6] = (-1/6, 0]
        assert quantize(np.array([0.0]), TWELVE_BIN)[0] == 5

    def test_right_edge_belongs_to_lower_bin(self):
        thresholds = TWELVE_BIN.thresholds
        for m in range(TWELVE_BIN.n_bins - 1):
            assert quantize(np.array([thresholds[m + 1]]), TWELVE_BIN)[0] == m

    def test_saturation_below_range(self):
        assert quantize(np.array([-2.0]), TWELVE_BIN)[0] == 0

    def test_saturation_above_range(self):
        assert quantize(np.array([7.5]), TWELVE_BIN)[0] == 11

    def test_open_left_edge(self):
        thresholds = TWELVE_BIN.thresholds
        just_above = np.nextafter(thresholds[3], np.inf)
        assert quantize(np.array([just_above]), TWELVE_BIN)[0] == 3

    @given(st.floats(-1.5, 1.5))
    @settings(max_examples=200, deadline=None)
    def test_bin_rule_matches_interval_definition(self, x):
        m = int(quantize(np.array([x]), TWELVE_BIN)[0])
        thr = TWELVE_BIN.thresholds
        if x <= thr[0]:
            assert m == 0
        elif x > thr[-1]:
            assert m == TWELVE_BIN.n_bins - 1
        else:
            assert thr[m] < x <= thr[m + 1]

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Quantizer([0.0, 0.0, 1.0])


class TestPhiCdf:
    def test_phi_at_zero(self):
        assert phi_cdf(0.0) == pytest.approx(0.5, abs=1e-16)

    def test_symmetry(self):
        x = np.linspace(-8, 8, 161)
        assert np.max(np.abs(phi_cdf(-x) - (1.0 - phi_cdf(x)))) < 1e-15

    def test_total_function_far_tails(self):
        assert phi_cdf(-40.0) == 0.0
        assert phi_cdf(40.0) == 1.0


class TestLogPhiCdfDiff:
    def test_deep_right_tail_matches_high_precision(self):
        got = log_phi_cdf_diff(9.0, 10.0)
        assert np.isfinite(got)
        assert got == pytest.approx(mp_log_phi_diff(9.0, 10.0), rel=1e-12)

    def test_deep_left_tail(self):
        got = log_phi_cdf_diff(-10.0, -9.0)
        assert got == pytest.approx(mp_log_phi_diff(-10.0, -9.0), rel=1e-12)

    def test_extreme_tail_stays_finite(self):
        assert np.isfinite(log_phi_cdf_diff(35.0, 36.0))
        assert log_phi_cdf_diff(35.0, 36.0) == pytest.approx(
            mp_log_phi_diff(35.0, 36.0), rel=1e-10
        )

    def test_straddling_zero(self):
        got = log_phi_cdf_diff(-0.5, 1.5)
        assert got == pytest.approx(mp_log_phi_diff(-0.5, 1.5), rel=1e-14)

    def test_narrow_central_bin(self):
        got = log_phi_cdf_diff(-1e-9, 1e-9)
        assert got == pytest.approx(mp_log_phi_diff(-1e-9, 1e-9), rel=1e-12)

    def test_infinite_bounds(self):
        assert log_phi_cdf_diff(-np.inf, 0.0) == pytest.approx(np.log(0.5))
        assert log_phi_cdf_diff(0.0, np.inf) == pytest.approx(np.log(0.5))
        assert log_phi_cdf_diff(-np.inf, np.inf) == 0.0

    def test_random_spot_checks_against_mpmath(self, rng):
        for _ in range(50):
            l = rng.uniform(-12.0, 11.0)
            u = l + rng.uniform(1e-6, 4.0)
            assert log_phi_cdf_diff(l, u) == pytest.approx(
                mp_log_phi_diff(l, u), rel=1e-10
            )

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            log_phi_cdf_diff(1.0, 0.0)


class TestQuantizedLoglik:
    def test_symmetric_two_bin_case(self):
        qz = Quantizer([-5.0, 0.0, 5.0])  # outer edges become infinite
        y = np.zeros(6)
        z = np.array([0, 1, 0, 1, 0, 1])
        terms = quantized_loglik_terms(y, z, 1.0, qz)
        assert np.allclose(terms, np.log(0.5), atol=1e-15)
        assert quantized_loglik(y, z, 1.0, qz) == pytest.approx(6 * np.log(0.5))

    def test_bin_center_probability_approaches_one_as_sigma_vanishes(self):
        qz = TWELVE_BIN
        center = -1.0 + 7 / 6 + 1 / 12  # center of bin 7 = (1/6, 1/3]
        terms = quantized_loglik_terms(
            np.array([center]), np.array([7]), 1e-9, qz
        )
        assert terms[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo_bin_frequencies(self, rng):
        qz = TWELVE_BIN
        n_draws = 1_000_000
        for _ in range(6):
            y = float(rng.uniform(-1.1, 1.1))
            sigma = float(rng.uniform(0.05, 0.6))
            z = int(rng.integers(0, 12))
            p = np.exp(
                quantized_loglik_terms(np.array([y]), np.array([z]), sigma, qz)[0]
            )
            draws = quantize(y + sigma * rng.standard_normal(n_draws), qz)
            freq = float(np.mean(draws == z))
            se = np.sqrt(max(p * (1 - p), 1e-12) / n_draws)
            assert abs(freq - p) <= 3 * se + 1e-9

    def test_probabilities_sum_to_one(self, rng):
        for n_bins in (2, 5, 12, 33, 64):
            qz = Quantizer.uniform(n_bins, -1.0, 1.0)
            y = rng.uniform(-2.0, 2.0, 40)
            sigma = float(rng.uniform(0.01, 2.0))
            probs = bin_probabilities(y, sigma, qz)
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_moving_toward_observed_bin_never_decreases_loglik(self):
        qz = TWELVE_BIN
        z = np.array([8])
        lo, hi = qz.thresholds[8], qz.thresholds[9]
        center = 0.5 * (lo + hi)
        approach = np.linspace(center - 2.0, center, 300)
        terms = [
            quantized_loglik_terms(np.array([y]), z, 0.2, qz)[0] for y in approach
        ]
        assert np.all(np.diff(terms) >= -1e-12)

    def test_affine_reparameterization_invariance(self, rng):
        qz = TWELVE_BIN
        y = rng.uniform(-1.0, 1.0, 50)
        z = quantize(y + rng.normal(0, 0.1, 50), qz)
        sigma = 0.17
        base = quantized_loglik(y, z, sigma, qz)
        s, c = 3.7, -0.9
        qz2 = Quantizer(s * qz.thresholds + c)
        moved = quantized_loglik(s * y + c, z, s * sigma, qz2)
        assert moved == pytest.approx(base, rel=1e-12)

    def test_perfect_observation_probability_approaches_one(self, rng):
        qz = TWELVE_BIN
        y = rng.uniform(-0.95, 0.95, 30)
        z = quantize(y, qz)
        # exclude samples sitting exactly on a threshold edge for the limit
        terms = quantized_loglik_terms(y, z, 1e-8, qz)
        assert np.all(terms > -1e-6)

    def test_underflow_clamped_and_counted(self):
        qz = TWELVE_BIN
        diag = LoglikDiagnostics()
        y = np.array([1e6])  # astronomically far from bin 0
        value = quantized_loglik(y, np.array([0]), 1e-3, qz, diagnostics=diag)
        assert np.isfinite(value)
        assert diag.clamped == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quantized_loglik(np.zeros(3), np.zeros(4, dtype=int), 1.0, TWELVE_BIN)

    def test_bin_range_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            quantized_loglik(np.zeros(2), np.array([0, 12]), 1.0, TWELVE_BIN)
