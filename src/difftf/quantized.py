"""Quantized-output likelihood with numerically stable tails.

A quantizer is an ascending threshold sequence q_0 < ... < q_K defining K
half-open bins (q_m, q_{m+1}]. For likelihood purposes the outermost bins are
unbounded (values can saturate past the physical range), so bin 0 integrates
from -inf and bin K-1 to +inf. The per-sample log-likelihood is
log(Phi(u_t) - Phi(l_t)) with standardized bin edges. One pass takes the
difference of normal CDFs in the linear domain, where it keeps its digits,
and redoes in the log domain only the samples where it cancels or nears
underflow; the naive difference everywhere would underflow long before the
optimum is reached on coarsely quantized data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, log_ndtr, ndtr

_LOG_P_FLOOR = np.log(1e-300)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# the linear difference ndtr(b) - ndtr(a) is used unless it cancels below
# _CANCEL * ndtr(b) or b lies below _TAIL_CUT; ndtr is relative-accurate
# down to about -37 and underflows past -37.5
_CANCEL = 1e-3
_TAIL_CUT = -20.0
_PDF_CLIP = 60.0


@dataclass(frozen=True)
class Quantizer:
    """Strictly increasing finite thresholds q_0 < ... < q_K defining K >= 2 bins."""

    thresholds: np.ndarray

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float)
        if thr.ndim != 1:
            raise ValueError(f"thresholds must be a flat list, got shape {thr.shape}")
        if not np.all(np.isfinite(thr)):
            raise ValueError("thresholds must be finite")
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

    def bin_edges(self, z):
        """Edges (lo, hi) of each sample's bin, shaped like z; outer edges +-inf.

        The one range check of bin indices: z outside 0..n_bins-1 is a
        ValueError.
        """
        z = np.asarray(z)
        if z.size and (z.min() < 0 or z.max() >= self.n_bins):
            bad = z[(z < 0) | (z >= self.n_bins)].flat[0]
            raise ValueError(f"bin index {bad} out of range for the quantizer's "
                             f"{self.n_bins} bins (0..{self.n_bins - 1})")
        edges = self.thresholds.copy()
        edges[0], edges[-1] = -np.inf, np.inf
        z = z.astype(np.int64, copy=False)
        return edges[z], edges[z + 1]


@dataclass
class LoglikDiagnostics:
    """Counts bin probabilities clamped at the underflow floor."""

    clamped: int = 0


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


def _exact_log_p(a, b):
    """log(Phi(b) - Phi(a)) for reflected bounds a < b with a + b <= 0.

    Left tails (b <= 0) factor the dominant CDF and use log1p of the
    complementary ratio; straddling bounds add the two erf halves, which
    cannot cancel.
    """
    out = np.empty(a.shape)
    left = b <= 0
    hi, lo = log_ndtr(b[left]), log_ndtr(a[left])
    out[left] = hi + _log1mexp(lo - hi)
    mid = ~left
    s2 = np.sqrt(2.0)
    out[mid] = np.log(0.5 * (erf(b[mid] / s2) - erf(a[mid] / s2)))
    return out


def _log_p(l, u):
    """(log P, P, exact) for P = Phi(u) - Phi(l) over flat arrays l < u.

    The bounds are reflected without branches: (a, b) = (min(l, -u),
    min(u, -l)) spans the same probability, so every sample is a left tail or
    straddles 0. The bulk takes P = ndtr(b) - ndtr(a) and its log. Only the
    samples in `exact` are redone in the log domain: those whose difference
    cancels (P < _CANCEL * ndtr(b)) and those whose CDF nears the underflow
    floor (b < _TAIL_CUT). P is not meaningful at those indices.
    """
    a = np.minimum(l, -u)
    b = np.minimum(u, -l)
    cdf_b = ndtr(b)
    p = cdf_b - ndtr(a)
    cdf_b *= _CANCEL
    exact = np.flatnonzero((p < cdf_b) | (b < _TAIL_CUT))
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    if exact.size:
        log_p[exact] = _exact_log_p(a[exact], b[exact])
    return log_p, p, exact


def log_phi_cdf_diff(l, u):
    """log(Phi(u) - Phi(l)) for l < u, stable in both tails.

    Either bound may be infinite. This is the likelihood's own kernel: the
    linear difference where it keeps its digits, the log domain elsewhere.
    """
    l = np.asarray(l, dtype=float)
    u = np.asarray(u, dtype=float)
    l, u = np.broadcast_arrays(l, u)
    if np.any(l >= u):
        raise ValueError("lower bound must be strictly below upper bound")
    out = _log_p(l.ravel(), u.ravel())[0].reshape(l.shape)
    return float(out) if out.ndim == 0 else out


def _gauss(x):
    """exp(-x^2 / 2): the normal pdf without its factor 1 / sqrt(2 pi)."""
    g = x * x
    g *= -0.5
    return np.exp(g, out=g)


def quantized_loglik(y_sim, z, sigma, qz, diagnostics=None):
    """Total log-likelihood sum_t log P(bin z_t | y_sim_t, sigma).

    y_sim and z are flat arrays of equal length (batched data may simply be
    raveled); sigma is the noise standard deviation. Bin probabilities that
    underflow even in stable form are clamped at 1e-300 and counted in
    diagnostics, never returned as NaN.
    """
    y = np.asarray(y_sim, dtype=float).ravel()
    zz = np.asarray(z).ravel()
    if y.shape != zz.shape:
        raise ValueError("y_sim and z must have the same length")
    lo, hi = qz.bin_edges(zz)
    return _loglik_with_grads(y, lo, hi, float(sigma), diagnostics)[0]


def quantized_loglik_terms(y_sim, z, sigma, qz):
    """Per-sample log-likelihood terms (no clamping), for diagnostics/tests."""
    y = np.asarray(y_sim, dtype=float).ravel()
    lo, hi = qz.bin_edges(np.asarray(z).ravel())
    return log_phi_cdf_diff((lo - y) / sigma, (hi - y) / sigma)


def _loglik_with_grads(y, lo, hi, sigma, diagnostics=None):
    """Total log-likelihood, its gradient in y and its summed gradient in log sigma.

    With standardized edges l, u and P = Phi(u) - Phi(l), the per-sample
    gradients are (phi(l) - phi(u)) / (sigma P) and (l phi(l) - u phi(u)) / P.
    """
    l = lo - y
    l /= sigma
    u = hi - y
    u /= sigma
    log_p, p, exact = _log_p(l, u)
    # past |x| = _PDF_CLIP, phi(x) / P is 0 in double precision even at the
    # floor, so clipping leaves every ratio as it is and keeps x * ratio
    # finite at the infinite outer edges
    np.clip(l, -_PDF_CLIP, _PDF_CLIP, out=l)
    np.clip(u, -_PDF_CLIP, _PDF_CLIP, out=u)
    # rl, ru are sqrt(2 pi) phi(l) / P and sqrt(2 pi) phi(u) / P; the factor
    # is taken out once at the end
    rl, ru = _gauss(l), _gauss(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        rl /= p
        ru /= p
    if exact.size:
        log_p_x = log_p[exact]
        clamped = log_p_x < _LOG_P_FLOOR
        if np.any(clamped):
            if diagnostics is not None:
                diagnostics.clamped += int(np.count_nonzero(clamped))
            log_p_x[clamped] = _LOG_P_FLOOR
            log_p[exact] = log_p_x
        # where P lost its digits the ratios are exp(-x^2 / 2 - log P); they
        # stay bounded, growing only linearly in deep tails (Mills ratio)
        rl[exact] = np.exp(-0.5 * l[exact] ** 2 - log_p_x)
        ru[exact] = np.exp(-0.5 * u[exact] ** 2 - log_p_x)
    d_y = rl - ru
    d_y *= _INV_SQRT_2PI / sigma
    d_log_sigma = _INV_SQRT_2PI * float(np.dot(l, rl) - np.dot(u, ru))
    return float(np.sum(log_p)), d_y, d_log_sigma


def quantized_loglik_node(tape, y_sim_node, lo, hi, log_sigma, diagnostics=None):
    """Tape node for the total log-likelihood of quantized observations.

    lo and hi are the observed bins' edges, `Quantizer.bin_edges(z)`, shaped
    like the simulated output. Gradients flow to the simulated output and to
    log-sigma.
    """
    sigma_node = tape._wrap_raw(log_sigma)
    sigma = float(np.exp(sigma_node.value))
    y = y_sim_node.value
    if lo.size != y.size or hi.size != y.size:
        raise ValueError("bin edges must have one entry per simulated sample")
    value, d_y, d_log_sigma = _loglik_with_grads(
        y.ravel(), lo.ravel(), hi.ravel(), sigma, diagnostics
    )

    def vjp(g):
        y_bar = (g * d_y).reshape(y.shape) if y_sim_node.requires_grad else None
        s_bar = g * d_log_sigma if sigma_node.requires_grad else None
        return (y_bar, s_bar)

    return tape.custom(value, (y_sim_node, sigma_node), vjp, op="quantized_loglik")


def bin_probabilities(y_sim, sigma, qz):
    """Probability of every bin for each simulated output value (rows sum to 1)."""
    y = np.asarray(y_sim, dtype=float).ravel()
    out = np.empty((y.size, qz.n_bins))
    for m in range(qz.n_bins):
        z = np.full(y.shape, m, dtype=np.int64)
        out[:, m] = np.exp(quantized_loglik_terms(y, z, sigma, qz))
    return out
