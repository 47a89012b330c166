"""Kernels of the filter backward pass, called by MimoTransferFunction's vjp.

The vjp runs in adjoint form. With y = B(q)/A(q) x(t - n_k) and the loss
gradient g with respect to y, one reverse all-pole pass w = A^-T g (the
transpose of the lower-triangular Toeplitz matrix of 1/A) gives all three
adjoints from taps and lagged dot products, by <g, F u> = <F^T g, u>:

    b_bar_j = sum_t w(t) x(t - j - n_k)       j = 0..n_b
    a_bar_j = -sum_t w(t) y(t - j)            j = 1..n_a
    x_bar(t) = sum_j b_j w(t + j + n_k)       (B^T, a FIR correlation)

The lag reductions run on gapped buffers: the rows laid end to end in one
flat array with `pad` zeros before each row and after the last, pad at least
the largest lag. A lag then never reads across a row boundary, so each lag
is one sum over the whole batch, and one correlation gives every lag.

sens_b0_rows and sens_a1_rows give the sensitivity form of the same
gradients (b_bar_j = sum_t g(t) sigma_b0(t - j), likewise for a): an
independent oracle for the tests, not used by the vjp.
"""

from __future__ import annotations

import numpy as np

from .tf_core import FilterDivergenceError, TransferFunction, filter_rows

# numpy correlates a kernel of up to 11 taps with unrolled loops and a longer
# one through dot calls: on 82,193 samples 11 taps took 0.12 ms and 12 taps
# 0.45 ms (2-vCPU AMD EPYC VM)
_CORRELATE_TAPS = 11


def sens_b0_rows(params, u_rows):
    """sigma_b0(t) = (1/A(q)) u(t - n_k) on (batch, T) rows.

    Sensitivities for the remaining b_j follow by shifting:
    sigma_bj(t) = sigma_b0(t - j), zero for t - j < 0.
    """
    all_pole = TransferFunction(np.ones(1), params.a, params.n_k)
    return filter_rows(all_pole, u_rows)


def sens_a1_rows(params, y_rows):
    """sigma_a1(t) = -(1/A(q)) y(t - 1) on (batch, T) rows, y the forward output.

    sigma_aj(t) = sigma_a1(t - j + 1), zero for t - j + 1 < 0.
    """
    delayed_all_pole = TransferFunction(np.ones(1), params.a, 1)
    return -filter_rows(delayed_all_pole, y_rows)


def gapped(rows, pad):
    """(batch, T) rows end to end in one flat buffer, pad zeros before each row and after the last."""
    batch, T = rows.shape
    flat = np.zeros(batch * (pad + T) + pad)
    ungapped(flat, batch, pad)[...] = rows
    return flat


def ungapped(flat, batch, pad):
    """The (batch, T) view of the rows in a gapped buffer."""
    width = (flat.size - pad) // batch
    return flat[pad:].reshape(batch, width)[:, : width - pad]


def _lag_dots(w, s, lags):
    """sum_k w[k] s[k - L] for each lag L of the ascending run `lags`, on
    gapped buffers of one layout.

    One correlation gives every lag. It starts each sum at k = lags[-1],
    which leaves out only the zeros that w has in front of its first row.
    """
    n = w.size
    return np.correlate(s[: n - lags[0]], w[lags[-1] :], "valid")[::-1]


def grad_b_rows(w, x, n_b, n_k):
    """b_bar_j = sum over rows and t of w(t) x(t - j - n_k), j = 0..n_b.

    w (the adjoint A^-T g) and x are gapped with pad >= n_k + n_b.
    """
    return _lag_dots(w, x, range(n_k, n_k + n_b + 1))


def grad_a_rows(w, y, n_a):
    """a_bar_j = -sum over rows and t of w(t) y(t - j), j = 1..n_a.

    w and the forward output y are gapped with pad >= n_a.
    """
    return -_lag_dots(w, y, range(1, n_a + 1))


def grad_x_rows(params, w):
    """x_bar(t) = sum_j b_j w(t + j + n_k) as a gapped buffer, w gapped with pad >= n_k + n_b.

    The correlation reads zeros past the end, so the last row's tail is exact.
    The taps are split into even pieces of at most _CORRELATE_TAPS, one
    correlation each, summed in tap order.
    """
    h = params.full_numerator()
    first, *rest = np.array_split(h, -(-h.size // _CORRELATE_TAPS))
    x_bar = np.correlate(w, first, "full")[first.size - 1 :]
    start = first.size
    for piece in rest:
        x_bar[: w.size - start] += np.correlate(w[start:], piece, "full")[piece.size - 1 :]
        start += piece.size
    return x_bar


def grad_u_rows(params, y_bar_rows):
    """u_bar = flip(G(q) flip(y_bar)): the O(T) reverse-time filtering form.

    Returns a time-reversed view of the filtered array, not a copy. A
    FilterDivergenceError names t in the rows' own (forward) time.
    """
    try:
        return filter_rows(params, y_bar_rows[:, ::-1])[:, ::-1]
    except FilterDivergenceError as exc:
        T = y_bar_rows.shape[-1]
        raise FilterDivergenceError(T - 1 - exc.t_index, exc.batch_index) from None
