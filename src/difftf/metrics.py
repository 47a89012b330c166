"""Simulation-quality metrics (fit index, RMSE, residual autocorrelation) and
the squared-error loss node that the mse and PEM losses share."""

from __future__ import annotations

import numpy as np


def fit_index(y, y_sim):
    """100 * (1 - ||y - y_sim|| / ||y - mean(y)||), in percent.

    Batched inputs are pooled: norms run over all samples and the mean is the
    pooled mean.
    """
    y = np.asarray(y, dtype=float).ravel()
    y_sim = np.asarray(y_sim, dtype=float).ravel()
    if y.shape != y_sim.shape:
        raise ValueError("y and y_sim must have the same length")
    require_spread(y)
    return 100.0 * (1.0 - np.linalg.norm(y - y_sim) / np.linalg.norm(y - y.mean()))


def require_spread(y):
    """Raise ValueError unless y holds two different values, which the fit index
    needs; exact, as ||y - mean(y)|| of a constant y can round to non-zero."""
    y = np.asarray(y, dtype=float)
    if y.size == 0 or y.min() == y.max():
        raise ValueError("fit index undefined for a constant reference signal")


def rmse(y, y_sim):
    """Root mean square simulation error, in output units."""
    y = np.asarray(y, dtype=float).ravel()
    y_sim = np.asarray(y_sim, dtype=float).ravel()
    if y.shape != y_sim.shape:
        raise ValueError("y and y_sim must have the same length")
    return float(np.sqrt(np.mean((y - y_sim) ** 2)))


def squared_error_node(tape, err, parents, op):
    """Tape node for mean(err^2); it owns err and sends 2 err (g / N) to every parent."""

    def vjp(g):
        bar = np.multiply(err, 2.0, out=err)  # err is consumed: a tape is swept once
        bar *= g / bar.size
        return (bar,) * len(parents)

    return tape.custom(float(np.mean(err * err)), parents, vjp, op=op)


def mse_loss_node(tape, out_node, y):
    """Tape node for mean((M(u) - y)^2) over the model output node M(u)."""
    return squared_error_node(tape, out_node.value - y, (out_node,), "mse_loss")


def autocorrelation(x, max_lag):
    """Sample autocorrelation at lags 1..max_lag of a 1-D series."""
    x = np.asarray(x, dtype=float).ravel()
    x = x - x.mean()
    denom = float(x @ x)
    if denom == 0.0:
        return np.zeros(max_lag)
    return np.array([float(x[k:] @ x[:-k]) / denom for k in range(1, max_lag + 1)])
