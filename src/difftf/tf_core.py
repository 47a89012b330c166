"""Discrete-time rational filters: coefficients, zero-state filtering.

A filter is y(t) = B(q)/A(q) u(t-n_k) with A(q) = 1 + a_1 q^-1 + ... + a_na q^-na
(the leading 1 is implicit and never stored) and B(q) = b_0 + b_1 q^-1 + ...
All signals follow the rest convention: u(t) = 0 and y(t) = 0 for t < 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter


class FilterDivergenceError(RuntimeError):
    """Filter output left the finite range (A(q) unstable, typically mid-training).

    Carries the first offending time index, the batch element it occurred in
    and, when a filter grid raised it, the grid cell (o, i).
    """

    def __init__(self, t_index, batch_index=0, cell=None):
        self.t_index = int(t_index)
        self.batch_index = int(batch_index)
        self.cell = None if cell is None else (int(cell[0]), int(cell[1]))
        where = "" if cell is None else f" in grid cell {self.cell}"
        super().__init__(
            f"non-finite filter output, first at t={self.t_index} "
            f"(batch element {self.batch_index}){where}"
        )


@dataclass(frozen=True)
class TransferFunction:
    """Coefficients of one SISO rational filter.

    b has length n_b + 1 (b_0 first), a has length n_a (a_1 first; the leading
    1 of A(q) is implicit so the filter is always realizable as a difference
    equation), n_k is the number of pure input delays applied before B(q).
    """

    b: np.ndarray
    a: np.ndarray
    n_k: int = 0

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        a = np.asarray(self.a, dtype=float).reshape(-1)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be a vector of length n_b + 1 >= 1")
        if not np.all(np.isfinite(b)) or not np.all(np.isfinite(a)):
            raise ValueError("filter coefficients must be finite")
        n_k = int(self.n_k)
        if n_k < 0:
            raise ValueError("n_k must be nonnegative")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n_k", n_k)

    @property
    def n_b(self):
        return self.b.size - 1

    @property
    def n_a(self):
        return self.a.size

    def full_numerator(self):
        """Numerator including the n_k leading delay zeros."""
        return np.concatenate([np.zeros(self.n_k), self.b])

    def full_denominator(self):
        """Denominator including the implicit leading 1."""
        return np.concatenate([[1.0], self.a])


def _as_rows(u):
    """A 1-D series or (batch, T) rows as (batch, T) float rows."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("expected a 1-D series or (batch, T) rows")
    return np.atleast_2d(arr)


def _raise_if_nonfinite(rows):
    if np.all(np.isfinite(rows)):
        return
    bad = ~np.isfinite(rows)
    bad_t = bad.any(axis=0)
    t0 = int(np.argmax(bad_t))
    row = int(np.argmax(bad[:, t0]))
    raise FilterDivergenceError(t0, row)


def filter_rows(params, rows):
    """Filter each row of a (batch, T) array through params, zero initial state."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1] < 1:
        raise ValueError("series length must be >= 1")
    a = params.full_denominator()
    if a.size == 1:  # lfilter's branch for a = [1] is slower than its recursive one
        a = np.array([1.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        out = lfilter(params.full_numerator(), a, rows, axis=-1)
    _raise_if_nonfinite(out)
    return out


def filter_forward(params, u):
    """Apply y(t) = -sum_j a_j y(t-j) + sum_j b_j u(t-j-n_k), zero prior history.

    u is a 1-D series or (batch, T) rows filtered independently; the output
    has the same shape. Raises FilterDivergenceError if the output leaves the
    finite range.
    """
    return filter_rows(params, _as_rows(u)).reshape(np.shape(u))


def impulse_response(params, T):
    """First T samples of the impulse response g of the filter."""
    T = int(T)
    if T < 1:
        raise ValueError("T must be >= 1")
    delta = np.zeros(T)
    delta[0] = 1.0
    return filter_forward(params, delta)


def frequency_response(params, freqs):
    """Complex response at normalized frequencies (cycles per sample)."""
    f = np.asarray(freqs, dtype=float)
    zinv = np.exp(-2j * np.pi * f)
    num = np.polynomial.polynomial.polyval(zinv, params.b) * zinv**params.n_k
    den = np.polynomial.polynomial.polyval(zinv, params.full_denominator())
    return num / den


def random_stable_tf(rng, n_b, n_a, n_k=0, max_radius=0.95):
    """Random filter with all poles (and zeros) inside radius max_radius."""
    gain = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
    b = gain * _random_real_monic(rng, n_b, max_radius)
    full_a = _random_real_monic(rng, n_a, max_radius)
    return TransferFunction(b=b, a=full_a[1:], n_k=n_k)


def _random_real_monic(rng, order, max_radius):
    """Monic real polynomial (ascending delay powers) with roots in a disk."""
    roots = []
    remaining = order
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.7:
            r = max_radius * rng.random()
            theta = rng.uniform(0.0, np.pi)
            roots.extend([r * np.exp(1j * theta), r * np.exp(-1j * theta)])
            remaining -= 2
        else:
            roots.append(complex(rng.uniform(-max_radius, max_radius)))
            remaining -= 1
    if not roots:
        return np.ones(1)
    return np.real(np.poly(roots))
