import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr

from difftf.quantized import (
    _CANCEL,
    _LOG_P_FLOOR,
    _TAIL_CUT,
    LoglikDiagnostics,
    Quantizer,
    _log_p,
    bin_probabilities,
    log_phi_cdf_diff,
    phi_cdf,
    quantize,
    quantized_loglik,
    quantized_loglik_node,
    quantized_loglik_terms,
)
from difftf.tape import Parameter, Tape

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

    @pytest.mark.parametrize("thresholds, match", [
        ([[-1.0, 0.0], [0.5, 1.0]], "flat list"),
        ([-1.0, 0.0, np.inf], "finite"),
        ([-1.0, np.nan, 1.0], "finite"),
    ])
    def test_thresholds_must_be_flat_and_finite(self, thresholds, match):
        with pytest.raises(ValueError, match=match):
            Quantizer(thresholds)


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


def mp_grads(l, u, dps=60):
    """(phi(l) - phi(u)) / P and (l phi(l) - u phi(u)) / P at high precision,
    each with its difference's two terms (to spot cancellation)."""
    with mpmath.workdps(dps):
        def cdf(x):
            return mpmath.mpf(0) if x == -np.inf else mpmath.ncdf(mpmath.mpf(x))

        def pdf(x):
            return mpmath.mpf(0) if abs(x) == np.inf else mpmath.npdf(mpmath.mpf(x))

        def xpdf(x):
            return mpmath.mpf(0) if abs(x) == np.inf else mpmath.mpf(x) * pdf(x)

        # Phi(u) - Phi(l) from the tail that keeps the digits
        if u <= 0:
            p = cdf(u) - cdf(l)
        elif l >= 0:
            p = cdf(-l) - cdf(-u)
        else:
            p = 1 - cdf(l) - cdf(-u)
        return (float((pdf(l) - pdf(u)) / p), (pdf(l), pdf(u)),
                float((xpdf(l) - xpdf(u)) / p), (xpdf(l), xpdf(u)))


def _cancel_width(ratio_of_cut, bin_at):
    """Width w at which the bin bin_at(w) has P / ndtr(b) = ratio_of_cut * _CANCEL."""
    def excess(w):
        l, u = bin_at(w)
        b = min(u, -l)
        return (ndtr(u) - ndtr(l)) / ndtr(b) - ratio_of_cut * _CANCEL

    return brentq(excess, 1e-9, 1.0, xtol=1e-300, rtol=1e-15)


def _kernel_points():
    """(l, u, takes the exact path) around every branch of the kernel."""
    eps = 1e-6
    pts = [
        (-3.0, -2.0, False), (-9.0, -8.5, False), (-0.5, 1.5, False),
        (-2.0, 0.1, False), (2.0, 3.0, False), (8.5, 9.0, False),
        (-30.0, -29.5, True), (29.5, 30.0, True),
        # either side of the tail cut, and its mirror image
        (_TAIL_CUT - 0.5 + eps, _TAIL_CUT + eps, False),
        (_TAIL_CUT - 0.5 - eps, _TAIL_CUT - eps, True),
        (-_TAIL_CUT - eps, -_TAIL_CUT + 0.5 - eps, False),
        (-_TAIL_CUT + eps, -_TAIL_CUT + 0.5 + eps, True),
        # one infinite edge, on both sides of the tail cut, and both
        (-np.inf, -1.0, False), (-np.inf, 2.0, False), (1.0, np.inf, False),
        (-np.inf, _TAIL_CUT + eps, False), (-np.inf, _TAIL_CUT - eps, True),
        (-_TAIL_CUT + eps, np.inf, True), (-25.0, np.inf, False),
        (-np.inf, np.inf, False),
    ]
    # either side of the cancellation cut: a left-tail bin ending at -2 and a
    # straddling bin (-2w, w)
    for ratio, exact in ((1.001, False), (0.999, True)):
        w = _cancel_width(ratio, lambda w: (-2.0 - w, -2.0))
        pts.append((-2.0 - w, -2.0, exact))
        w = _cancel_width(ratio, lambda w: (-2.0 * w, w))
        pts.append((-2.0 * w, w, exact))
    return pts


KERNEL_POINTS = _kernel_points()


class TestKernelBranches:
    def test_reflection_is_bit_for_bit(self):
        grid = np.concatenate(([-np.inf], np.linspace(-40.0, 40.0, 161),
                               np.linspace(-1.3, 1.1, 13) * np.pi, [np.inf]))
        l, u = np.meshgrid(grid, grid, indexing="ij")
        keep = l < u
        l, u = l[keep], u[keep]
        assert np.array_equal(log_phi_cdf_diff(l, u), log_phi_cdf_diff(-u, -l))

    @pytest.mark.parametrize("l,u,exact", KERNEL_POINTS)
    def test_value_on_each_path_matches_mpmath(self, l, u, exact):
        _, _, taken = _log_p(np.array([l]), np.array([u]))
        assert (taken.size == 1) == exact
        got = log_phi_cdf_diff(l, u)
        want = mp_log_phi_diff(l, u)
        if want == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("l,u,exact", KERNEL_POINTS)
    def test_node_gradients_match_mpmath(self, l, u, exact):
        y_sim = Parameter(np.array([[[0.25]]]), "y_sim")
        log_sigma = Parameter(np.log(0.5), "log_sigma")
        sigma = float(np.exp(log_sigma.value))
        lo = np.array([[0.25 + sigma * l]])
        hi = np.array([[0.25 + sigma * u]])
        tape = Tape()
        tape.backward(quantized_loglik_node(tape, tape.leaf(y_sim), lo, hi, log_sigma))
        # the standardized bounds the kernel sees
        l_k, u_k = (lo[0, 0] - 0.25) / sigma, (hi[0, 0] - 0.25) / sigma
        d_y, pdfs, d_log_sigma, xpdfs = mp_grads(l_k, u_k)
        # a difference whose terms agree to 1e-4 keeps too few digits in
        # double precision for a 1e-10 comparison; those points are skipped
        if abs(pdfs[0] - pdfs[1]) >= 1e-4 * max(pdfs):
            assert y_sim.grad[0, 0, 0] == pytest.approx(d_y / sigma, rel=1e-10)
        elif max(pdfs) == 0:
            assert y_sim.grad[0, 0, 0] == 0.0
        if abs(xpdfs[0] - xpdfs[1]) >= 1e-4 * max(abs(xpdfs[0]), abs(xpdfs[1])):
            assert float(log_sigma.grad) == pytest.approx(d_log_sigma, rel=1e-10)
        elif max(abs(xpdfs[0]), abs(xpdfs[1])) == 0:
            assert float(log_sigma.grad) == 0.0

    def test_clamped_terms_counted_where_probability_underflows(self):
        qz = TWELVE_BIN
        sigma = 1e-3
        t = np.arange(35.0, 40.0, 0.25)
        y = qz.thresholds[1] + sigma * t  # bin 0 is (-inf, q_1]: P = Phi(-t)
        z = np.zeros(t.size, dtype=np.int64)
        diag = LoglikDiagnostics()
        value = quantized_loglik(y, z, sigma, qz, diagnostics=diag)
        u = (qz.thresholds[1] - y) / sigma
        want = [mp_log_phi_diff(-np.inf, x) for x in u]
        assert diag.clamped == sum(w < _LOG_P_FLOOR for w in want) > 0
        assert value == pytest.approx(sum(max(w, _LOG_P_FLOOR) for w in want), rel=1e-12)

    def test_node_on_bin_edges_equals_quantized_loglik(self, rng):
        qz = TWELVE_BIN
        y = rng.uniform(-1.2, 1.2, (3, 50, 1))
        z = quantize(y + rng.normal(0.0, 0.2, y.shape), qz)
        log_sigma = np.log(0.2)
        tape = Tape()
        lo, hi = qz.bin_edges(z)
        node = quantized_loglik_node(tape, tape.constant(y), lo, hi, log_sigma)
        assert node.value == quantized_loglik(y, z, float(np.exp(log_sigma)), qz)


class TestBinEdges:
    def test_edges_shaped_like_z_with_open_outer_bins(self):
        qz = TWELVE_BIN
        z = np.array([[0, 5], [11, 3]])
        lo, hi = qz.bin_edges(z)
        assert lo.shape == hi.shape == z.shape
        assert lo[0, 0] == -np.inf and hi[1, 0] == np.inf
        assert lo[0, 1] == qz.thresholds[5] and hi[0, 1] == qz.thresholds[6]
        assert lo[1, 1] == qz.thresholds[3] and hi[1, 1] == qz.thresholds[4]

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_out_of_range_bin_rejected(self, bad):
        with pytest.raises(ValueError, match=f"bin index {bad} out of range"):
            TWELVE_BIN.bin_edges(np.array([0, 3, bad, 2]))
