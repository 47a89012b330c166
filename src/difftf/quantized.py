"""Quantized-output likelihood with numerically stable tails.

A quantizer is an ascending threshold sequence q_0 < ... < q_K defining K
half-open bins (q_m, q_{m+1}]. For likelihood purposes the outermost bins are
unbounded (values can saturate past the physical range), so bin 0 integrates
from -inf and bin K-1 to +inf. The per-sample log-likelihood is
log(Phi(u_t) - Phi(l_t)) with standardized bin edges; it is evaluated in the
log domain because the naive difference underflows long before the optimum is
reached on coarsely quantized data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, log_ndtr

_LOG_P_FLOOR = np.log(1e-300)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class Quantizer:
    """Strictly increasing thresholds q_0 < ... < q_K defining K >= 2 bins."""

    thresholds: np.ndarray

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float).reshape(-1)
        if thr.size < 3:
            raise ValueError("need at least 3 thresholds (K >= 2 bins)")
        if not np.all(np.diff(thr) > 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", thr)

    @property
    def n_bins(self):
        return self.thresholds.size - 1

    @classmethod
    def uniform(cls, n_bins, lo, hi):
        return cls(np.linspace(lo, hi, n_bins + 1))


@dataclass
class LoglikDiagnostics:
    """Counts bin probabilities clamped at the underflow floor."""

    clamped: int = 0

    def reset(self):
        self.clamped = 0


def quantize(x, qz):
    """Bin index per sample: m iff x in (q_m, q_{m+1}], saturating outer bins."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(qz.thresholds, x, side="left") - 1
    return np.clip(idx, 0, qz.n_bins - 1).astype(np.int64)


def phi_cdf(x):
    """Standard normal CDF through the complementary error function."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def _log1mexp(delta):
    """log(1 - exp(delta)) for delta < 0, accurate at both ends."""
    delta = np.asarray(delta, dtype=float)
    out = np.empty_like(delta)
    small = delta > -np.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[small] = np.log(-np.expm1(delta[small]))
        out[~small] = np.log1p(-np.exp(delta[~small]))
    return out


def log_phi_cdf_diff(l, u):
    """log(Phi(u) - Phi(l)) for l < u, stable in both tails.

    Either bound may be infinite. Same-side tails factor the dominant CDF and
    use log1p of the complementary ratio; straddling bounds add the two erf
    halves, which cannot cancel.
    """
    l = np.asarray(l, dtype=float)
    u = np.asarray(u, dtype=float)
    l, u = np.broadcast_arrays(l, u)
    if np.any(l >= u):
        raise ValueError("lower bound must be strictly below upper bound")
    out = np.empty(l.shape)

    lower_inf = np.isneginf(l)
    upper_inf = np.isposinf(u)
    both_inf = lower_inf & upper_inf
    out[both_inf] = 0.0
    m = lower_inf & ~upper_inf
    out[m] = log_ndtr(u[m])
    m = upper_inf & ~lower_inf
    out[m] = log_ndtr(-l[m])

    finite = ~(lower_inf | upper_inf)
    left = finite & (u <= 0)
    if np.any(left):
        hi, lo = log_ndtr(u[left]), log_ndtr(l[left])
        out[left] = hi + _log1mexp(lo - hi)
    right = finite & (l >= 0)
    if np.any(right):
        hi, lo = log_ndtr(-l[right]), log_ndtr(-u[right])
        out[right] = hi + _log1mexp(lo - hi)
    middle = finite & (l < 0) & (u > 0)
    if np.any(middle):
        s2 = np.sqrt(2.0)
        out[middle] = np.log(
            0.5 * (erf(u[middle] / s2) - erf(l[middle] / s2))
        )
    return float(out) if out.ndim == 0 else out


def _standardized_bounds(y_sim, z, sigma, qz):
    """Standardized bin edges (l, u) per sample, outer edges at +-inf."""
    lo_table = qz.thresholds.copy()
    lo_table[0] = -np.inf
    hi_table = qz.thresholds.copy()
    hi_table[-1] = np.inf
    lo = lo_table[z]
    hi = hi_table[z + 1]
    return (lo - y_sim) / sigma, (hi - y_sim) / sigma


def _log_normal_pdf(x):
    with np.errstate(over="ignore", invalid="ignore"):
        out = -0.5 * x * x - _HALF_LOG_2PI
    return np.where(np.isfinite(x), out, -np.inf)


def quantized_loglik(y_sim, z, sigma, qz, diagnostics=None):
    """Total log-likelihood sum_t log P(bin z_t | y_sim_t, sigma).

    y_sim and z are flat arrays of equal length (batched data may simply be
    raveled); sigma is the noise standard deviation. Bin probabilities that
    underflow even in stable form are clamped at 1e-300 and counted in
    diagnostics, never returned as NaN.
    """
    y = np.asarray(y_sim, dtype=float).ravel()
    zz = np.asarray(z).ravel().astype(np.int64)
    if y.shape != zz.shape:
        raise ValueError("y_sim and z must have the same length")
    if zz.min() < 0 or zz.max() > qz.n_bins - 1:
        raise ValueError("bin indices out of range")
    return _loglik_with_grads(y, zz, float(sigma), qz, diagnostics)[0]


def quantized_loglik_terms(y_sim, z, sigma, qz):
    """Per-sample log-likelihood terms (no clamping), for diagnostics/tests."""
    y = np.asarray(y_sim, dtype=float).ravel()
    zz = np.asarray(z).ravel().astype(np.int64)
    l, u = _standardized_bounds(y, zz, float(sigma), qz)
    return log_phi_cdf_diff(l, u)


def _loglik_with_grads(y, zz, sigma, qz, diagnostics=None):
    l, u = _standardized_bounds(y, zz, sigma, qz)
    log_p = log_phi_cdf_diff(l, u)
    clamped = log_p < _LOG_P_FLOOR
    if np.any(clamped):
        if diagnostics is not None:
            diagnostics.clamped += int(np.count_nonzero(clamped))
        log_p = np.where(clamped, _LOG_P_FLOOR, log_p)
    # ratios exp(log pdf - log P) stay bounded: in deep tails they grow only
    # linearly with the standardized bound (Mills ratio)
    fin_l, fin_u = np.isfinite(l), np.isfinite(u)
    rl = np.zeros_like(log_p)
    ru = np.zeros_like(log_p)
    rl[fin_l] = np.exp(_log_normal_pdf(l[fin_l]) - log_p[fin_l])
    ru[fin_u] = np.exp(_log_normal_pdf(u[fin_u]) - log_p[fin_u])
    d_y = (rl - ru) / sigma
    d_log_sigma = np.zeros_like(log_p)
    d_log_sigma[fin_l] += l[fin_l] * rl[fin_l]
    d_log_sigma[fin_u] -= u[fin_u] * ru[fin_u]
    return float(np.sum(log_p)), d_y, d_log_sigma


def quantized_loglik_node(tape, y_sim_node, z, log_sigma, qz, diagnostics=None):
    """Tape node for the total log-likelihood of quantized observations.

    Gradients flow to the simulated output and to log-sigma. z must match the
    flattened layout of the (batch, T, 1) simulated output.
    """
    sigma_node = tape._wrap_raw(log_sigma)
    sigma = float(np.exp(sigma_node.value))
    y = y_sim_node.value
    zz = np.asarray(z).reshape(y.shape).astype(np.int64)
    value, d_y, d_log_sigma = _loglik_with_grads(
        y.ravel(), zz.ravel(), sigma, qz, diagnostics
    )

    def vjp(g):
        y_bar = (g * d_y).reshape(y.shape) if y_sim_node.requires_grad else None
        s_bar = g * float(np.sum(d_log_sigma)) if sigma_node.requires_grad else None
        return (y_bar, s_bar)

    return tape.custom(value, (y_sim_node, sigma_node), vjp, op="quantized_loglik")


def bin_probabilities(y_sim, sigma, qz):
    """Probability of every bin for each simulated output value (rows sum to 1)."""
    y = np.asarray(y_sim, dtype=float).ravel()
    out = np.empty((y.size, qz.n_bins))
    for m in range(qz.n_bins):
        z = np.full(y.shape, m, dtype=np.int64)
        l, u = _standardized_bounds(y, z, float(sigma), qz)
        out[:, m] = np.exp(log_phi_cdf_diff(l, u))
    return out
