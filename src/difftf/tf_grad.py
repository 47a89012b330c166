"""Row kernels of the filter backward pass, called by MimoTransferFunction's vjp.

Given the loss gradient with respect to one filter's output rows (y_bar),
they compute the gradients with respect to the numerator coefficients b, the
denominator coefficients a, and the input rows u. Coefficient gradients
reduce to one all-pole filtering (the sensitivity series) plus shifted dot
products; the input gradient is the reverse-time filtering trick.
"""

from __future__ import annotations

import numpy as np

from .tf_core import TransferFunction, filter_rows


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


def grad_b_rows(y_bar_rows, sigma_b0_rows, n_b):
    """b_bar_j = sum_{t=j}^{T-1} y_bar_t sigma_b0(t - j), summed over batch rows."""
    T = y_bar_rows.shape[1]
    if n_b >= T:
        raise ValueError("n_b must be smaller than the series length")
    out = np.zeros(n_b + 1)
    for row in range(y_bar_rows.shape[0]):
        yb = y_bar_rows[row]
        sb = sigma_b0_rows[row]
        for j in range(n_b + 1):
            out[j] += np.dot(yb[j:], sb[: T - j])
    return out


def grad_a_rows(y_bar_rows, sigma_a1_rows, n_a):
    """a_bar_j = sum_{t=j-1}^{T-1} y_bar_t sigma_a1(t - j + 1), j = 1..n_a."""
    T = y_bar_rows.shape[1]
    if n_a >= T:
        raise ValueError("n_a must be smaller than the series length")
    out = np.zeros(n_a)
    for row in range(y_bar_rows.shape[0]):
        yb = y_bar_rows[row]
        sa = sigma_a1_rows[row]
        for j in range(1, n_a + 1):
            out[j - 1] += np.dot(yb[j - 1 :], sa[: T - j + 1])
    return out


def grad_u_rows(params, y_bar_rows):
    """u_bar = flip(G(q) flip(y_bar)): the O(T) reverse-time filtering form."""
    return filter_rows(params, y_bar_rows[:, ::-1])[:, ::-1].copy()
