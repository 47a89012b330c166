"""Prediction-error training: monic inverse noise filter, predictor, loss.

The noise model is parametrized through its inverse: H^-1(q) = 1 + Hc(q) with
Hc a strictly proper filter (one input delay), so H^-1 is monic by
construction and the one-step-ahead predictor uses outputs only up to t-1.
"""

from __future__ import annotations

import warnings

import numpy as np

from .blocks import MimoTransferFunction
from .metrics import squared_error_node
from .tf_core import TransferFunction, frequency_response


class PemModel:
    """Deterministic block model plus a strictly proper noise block Hc.

    Hc is a 1x1 filter grid with n_k = 1; the inverse noise filter 1 + Hc
    therefore has an impulse response that leads with exactly 1.
    """

    def __init__(self, model, noise_n_b=2, noise_n_a=2, noise_b=None, noise_a=None):
        if model.out_channels != 1:
            raise ValueError("prediction error is defined for single-output models")
        self.model = model
        b0 = np.zeros(int(noise_n_b) + 1) if noise_b is None else np.asarray(noise_b, float)
        a0 = np.zeros(int(noise_n_a)) if noise_a is None else np.asarray(noise_a, float)
        self.noise = MimoTransferFunction(1, 1, b0.size - 1, a0.size, n_k=1, b=b0, a=a0)
        self.noise_b = self.noise.b
        self.noise_a = self.noise.a

    def h_check(self):
        """Current strictly proper noise block as a fixed filter."""
        return self.noise.cell(0, 0)

    def parameters(self):
        return [*self.model.parameters(), ("noise.b", self.noise_b), ("noise.a", self.noise_a)]

    def _error_nodes(self, tape, u, y):
        """Record r = M(u) - y for (batch, T, 1) arrays, and the noise grid's output Hc(q) r."""
        out = self.model.apply(tape, tape.constant(u))
        r = tape.custom(out.value - y, (out,), lambda g: (g,), op="residual")
        return r, self.noise.apply(tape, r)

    def pem_loss_node(self, tape, u, y):
        """mean(eps^2) as one `pem_loss` node over r and Hc r, where -eps = r + Hc r."""
        r, hr = self._error_nodes(tape, u, y)
        return squared_error_node(tape, r.value + hr.value, (r, hr), "pem_loss")


def prediction_error(model, u, y):
    """eps = d + Hc(q) d with d = y - M(u), for (batch, T, 1) arrays, without a tape."""
    d = y - model.model.simulate(u)
    return d + model.noise.simulate(d)


def one_step_predictor(model, u, y):
    """Optimal one-step-ahead prediction, defined so that yhat + eps = y.

    Because Hc is strictly proper, yhat(t) depends on measured outputs only
    through lags >= 1.
    """
    return y - prediction_error(model, u, y)


def pem_loss(model, u, y):
    """Mean squared prediction error."""
    eps = prediction_error(model, u, y)
    return float(np.mean(eps * eps))


def invert_monic_noise_filter(h_check):
    """Noise filter H = 1 / (1 + Hc) as an explicit rational filter.

    With Hc = q^-1 Bc(q)/Ac(q), H = Ac(q) / (Ac(q) + q^-1 Bc(q)); the combined
    denominator stays monic. Warns when the fitted inverse 1 + Hc has zeros
    outside the unit circle (H would not be minimum phase).
    """
    if h_check.n_k != 1:
        raise ValueError("the noise block must carry exactly one input delay")
    ac = h_check.full_denominator()
    shifted_bc = np.concatenate([[0.0], h_check.b])
    n = max(ac.size, shifted_bc.size)
    den = np.zeros(n)
    den[: ac.size] += ac
    den[: shifted_bc.size] += shifted_bc
    roots = np.roots(den)  # den is ascending in q^-1, i.e. descending in q
    if roots.size and np.any(np.abs(roots) > 1.0 + 1e-12):
        warnings.warn(
            "estimated inverse noise filter has zeros outside the unit circle; "
            "the implied H is not minimum phase",
            RuntimeWarning,
        )
    num = np.zeros(n)
    num[: ac.size] = ac
    return TransferFunction(b=num, a=den[1:], n_k=0)


def estimated_noise_filter(model):
    """The fitted H(q) implied by the model's inverse-noise parametrization."""
    return invert_monic_noise_filter(model.h_check())


def magnitude_response_db(params, freqs):
    """Magnitude in dB at normalized frequencies (cycles per sample)."""
    return 20.0 * np.log10(np.abs(frequency_response(params, freqs)))


def bode_magnitude_table(params, freqs, true_params=None):
    """Rows of (frequency, magnitude_db[, true_magnitude_db]) for CSV export."""
    freqs = np.asarray(freqs, dtype=float)
    cols = [freqs, magnitude_response_db(params, freqs)]
    header = ["frequency", "magnitude_db"]
    if true_params is not None:
        cols.append(magnitude_response_db(true_params, freqs))
        header.append("true_magnitude_db")
    return header, np.column_stack(cols)
