"""Simulation-quality metrics (fit index, RMSE, residual autocorrelation) and
the mean-squared-error training loss."""

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
    denom = np.linalg.norm(y - y.mean())
    if denom == 0.0:
        raise ValueError("fit index undefined for a constant reference signal")
    return 100.0 * (1.0 - np.linalg.norm(y - y_sim) / denom)


def rmse(y, y_sim):
    """Root mean square simulation error, in output units."""
    y = np.asarray(y, dtype=float).ravel()
    y_sim = np.asarray(y_sim, dtype=float).ravel()
    if y.shape != y_sim.shape:
        raise ValueError("y and y_sim must have the same length")
    return float(np.sqrt(np.mean((y - y_sim) ** 2)))


def mse_loss_node(tape, out_node, y):
    """Tape node for mean((y - M(u))^2) over the model output node M(u).

    Its vjp sends -2 err (g / N) to M(u): the arithmetic of the composed sub,
    square and mean nodes, in the same order.
    """
    err = y - out_node.value

    def vjp(g):
        bar = np.multiply(err, 2.0, out=err)  # err is consumed: a tape is swept once
        bar *= g / bar.size
        return (-bar,)

    return tape.custom(float(np.mean(err * err)), (out_node,), vjp, op="mse_loss")


def autocorrelation(x, max_lag):
    """Sample autocorrelation at lags 1..max_lag of a 1-D series."""
    x = np.asarray(x, dtype=float).ravel()
    x = x - x.mean()
    denom = float(x @ x)
    if denom == 0.0:
        return np.zeros(max_lag)
    return np.array([float(x[k:] @ x[:-k]) / denom for k in range(1, max_lag + 1)])
