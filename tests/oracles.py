"""Slow, independent oracles that the tests check difftf against.

- Filters: the literal difference equation, the truncated convolution with
  an impulse response, time reversal, and the lagged sums and correlation
  of the filter backward pass, term by term.
- Quantized likelihood: the normal CDF, the per-sample log-likelihood terms
  and the probability of every bin.
- PEM: the impulse response of the inverse noise filter.
- Tape: the elementwise ops that the fused loss nodes replaced, each one
  `Tape.custom` node with the arithmetic it had in the tape.
"""

import numpy as np
from scipy.special import erfc

from difftf.quantized import log_phi_cdf_diff
from difftf.tf_core import _as_rows, _raise_if_nonfinite, impulse_response


# ---- filters ------------------------------------------------------------


def filter_forward_reference(params, u, *, count_mults=False):
    """Literal difference-equation evaluation, kept as a slow independent oracle.

    Uses exactly T * (n_b + n_a + 1) scalar multiplications per batch row; pass
    count_mults=True to get (y, mult_count) for cost assertions.
    """
    rows = _as_rows(u)
    b, a, n_k = params.b, params.a, params.n_k
    n_rows, T = rows.shape
    out = np.zeros_like(rows)
    mults = 0
    for n in range(n_rows):
        un = rows[n]
        yn = out[n]
        for t in range(T):
            acc = 0.0
            for j in range(b.size):
                k = t - j - n_k
                acc += b[j] * (un[k] if k >= 0 else 0.0)
                mults += 1
            for j in range(1, a.size + 1):
                k = t - j
                acc -= a[j - 1] * (yn[k] if k >= 0 else 0.0)
                mults += 1
            yn[t] = acc
    _raise_if_nonfinite(out)
    y = out.reshape(np.shape(u))
    return (y, mults) if count_mults else y


def convolve_truncated(g, u):
    """Truncated convolution y_i = sum_{j=0}^{i} g_j u_{i-j}, direct O(T^2) form.

    Verification oracle for filter_forward via the impulse response; g and u
    must have equal length.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise ValueError("g must be a 1-D impulse-response vector")
    rows = _as_rows(u)
    T = rows.shape[1]
    if g.size != T:
        raise ValueError(f"length mismatch: len(g)={g.size}, len(u)={T}")
    out = np.empty_like(rows)
    for i in range(T):
        lo = max(0, i + 1 - T)
        out[:, i] = rows[:, i - lo :: -1][:, : i - lo + 1] @ g[lo : i + 1]
    return out.reshape(np.shape(u))


def flip(x):
    """Time reversal along the last axis: (flip(x))_t = x_{T-t-1}."""
    return _as_rows(x)[:, ::-1].reshape(np.shape(x)).copy()


def lag_sums(w_rows, s_rows, lags):
    """sum over rows and t of w(t) s(t - L) for each lag L, term by term on
    (batch, T) rows, s read as zero before each row's start."""
    batch, T = w_rows.shape
    return np.array([sum(w_rows[r, t] * s_rows[r, t - L] for r in range(batch) for t in range(L, T))
                     for L in lags])


def correlate_rows(w_rows, h):
    """x(t) = sum_j h_j w(t + j) term by term on (batch, T) rows, w read as
    zero past each row's end."""
    batch, T = w_rows.shape
    out = np.zeros((batch, T))
    for r in range(batch):
        for t in range(T):
            out[r, t] = sum(h[j] * w_rows[r, t + j] for j in range(len(h)) if t + j < T)
    return out


# ---- quantized likelihood -------------------------------------------------


def phi_cdf(x):
    """Standard normal CDF through the complementary error function."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def quantized_loglik_terms(y_sim, z, sigma, qz):
    """Per-sample log-likelihood terms (no clamping)."""
    y = np.asarray(y_sim, dtype=float).ravel()
    lo, hi = qz.bin_edges(np.asarray(z).ravel())
    return log_phi_cdf_diff((lo - y) / sigma, (hi - y) / sigma)


def bin_probabilities(y_sim, sigma, qz):
    """Probability of every bin for each simulated output value (rows sum to 1)."""
    y = np.asarray(y_sim, dtype=float).ravel()
    out = np.empty((y.size, qz.n_bins))
    for m in range(qz.n_bins):
        z = np.full(y.shape, m, dtype=np.int64)
        out[:, m] = np.exp(quantized_loglik_terms(y, z, sigma, qz))
    return out


# ---- prediction error -----------------------------------------------------


def inverse_noise_impulse_response(model, T):
    """Impulse response of H^-1 = 1 + Hc; leads with exactly 1."""
    g = impulse_response(model.h_check(), T)
    g[0] += 1.0
    return g


# ---- elementwise tape ops ---------------------------------------------------


def add(tape, x, y):
    return tape.custom(x.value + y.value, (x, y), lambda g: (g, g), op="add")


def sub(tape, x, y):
    return tape.custom(x.value - y.value, (x, y), lambda g: (g, -g), op="sub")


def scale(tape, x, c):
    c = float(c)
    return tape.custom(c * x.value, (x,), lambda g: (c * g,), op="scale")


def square(tape, x):
    xv = x.value
    return tape.custom(xv * xv, (x,), lambda g: (2.0 * xv * g,), op="square")


def mean(tape, x):
    xv = np.asarray(x.value, dtype=float)
    return tape.custom(float(np.mean(xv)), (x,),
                       lambda g: (np.full_like(xv, g / xv.size),), op="mean")


def total(tape, x):
    xv = np.asarray(x.value, dtype=float)
    return tape.custom(float(np.sum(xv)), (x,), lambda g: (np.full_like(xv, g),), op="sum")
