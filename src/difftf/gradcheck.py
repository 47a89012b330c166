"""Finite-difference verification of every analytic gradient in the package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import MimoTransferFunction, build_pwh, build_wh
from .pem import PemModel
from .quantized import Quantizer, quantize, quantized_loglik_node
from .tape import Parameter, Tape
from .tf_core import random_stable_tf

GRAD_TOL = 1e-5


def central_difference(f, theta, h_scale=1e-5):
    """Central finite differences of a scalar function, elementwise.

    The step is h_scale * max(1, |theta_i|) per coordinate, on the
    fourth-order central stencil. The higher-order stencil keeps truncation
    negligible at this step size, and the step keeps roundoff (eps * |loss| /
    h) resolvable against a 1e-5 tolerance even for stiff filter losses; a
    plain second-order stencil at 1e-6 fails on both counts for filters with
    poles near the unit circle.
    """
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    out = np.empty_like(flat)

    def at(vec):
        return f(vec.reshape(theta.shape))

    for i in range(flat.size):
        h = h_scale * max(1.0, abs(flat[i]))
        probes = []
        for step in (2 * h, h, -h, -2 * h):
            v = flat.copy()
            v[i] += step
            probes.append(at(v))
        p2, p1, m1, m2 = probes
        out[i] = (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)
    return out.reshape(theta.shape)


def relative_errors(analytic, fd):
    """Per-component error scaled by max(|analytic|, |fd|, 1e-2 * scale).

    scale is the dominant gradient magnitude. Components below 1% of it are
    held to an absolute tolerance instead: central differences carry roundoff
    of order eps * |loss| / h (~1e-10 here), so a strict elementwise ratio on
    near-flat directions would flag pure FD noise. A formula or indexing error
    corrupts dominant components at O(1) and is still caught immediately.
    """
    a = np.asarray(analytic, dtype=float).ravel()
    f = np.asarray(fd, dtype=float).ravel()
    scale = max(np.max(np.abs(f), initial=0.0), np.max(np.abs(a), initial=0.0), 1e-12)
    # the 1e-4 absolute floor is the FD roundoff (~1e-10 for O(1) losses)
    # divided by the tolerance, with two decades of headroom
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), max(1e-2 * scale, 1e-4))
    return np.abs(a - f) / denom


@dataclass
class CheckRow:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self):
        return self.max_rel_err <= self.tol


def parameter_errors(params, loss_on):
    """Worst relative error of each Parameter's tape gradient against central differences.

    loss_on(tape) records a scalar loss on the tape it is given and returns its
    node. One tape gives the analytic gradients; every difference probe records
    a fresh tape with one Parameter's value swapped in, restored afterwards.
    """
    params = list(params)
    for p in params:
        p.grad = np.zeros_like(p.value)
    tape = Tape()
    tape.backward(loss_on(tape))
    worst = []
    for p in params:
        def loss_at(v, p=p):
            saved, p.value = p.value, v
            try:
                return loss_on(Tape()).value
            finally:
                p.value = saved

        fd = central_difference(loss_at, p.value)
        worst.append(float(np.max(relative_errors(p.grad, fd), initial=0.0)))
    return worst


def _weighted_filter_loss(tf, u, w):
    """The loss w . G(q)u through the filter op that training records, a 1x1
    MimoTransferFunction grid; returns the grid, u as a Parameter and loss_on."""
    grid = MimoTransferFunction.siso(tf)
    u_param = Parameter(np.asarray(u, dtype=float)[np.newaxis, :, np.newaxis], "u")
    w3 = np.asarray(w, dtype=float)[np.newaxis, :, np.newaxis]

    def loss_on(tape):
        y = grid.apply(tape, tape.leaf(u_param))
        return tape.custom(float(np.sum(w3 * y.value)), (y,), lambda g: (g * w3,), op="weighted")

    return grid, u_param, loss_on


def filter_op_gradients(tf, u, w):
    """b, a and u adjoints of the loss w . G(q)u on a tape."""
    grid, u_param, loss_on = _weighted_filter_loss(tf, u, w)
    tape = Tape()
    tape.backward(loss_on(tape))
    return grid.b.grad[0, 0], grid.a.grad[0, 0], u_param.grad[0, :, 0]


def mse_loss_on(model, u, y):
    """loss_on for the mean squared error of model's output on u against y."""
    def loss_on(tape):
        err = tape.sub(tape.constant(y), model.apply(tape, tape.constant(u)))
        return tape.mean(tape.square(err))

    return loss_on


def check_filter_gradients(rng, n_cases=20, lengths=(8, 32, 128)):
    """FD check of the three filter gradients on random stable cases.

    Pole radius is capped at 0.9: high-order filters with all poles pushed
    against the unit circle amplify the loss by ~1e4, which leaves finite
    differences at step 1e-6 too roundoff-limited to resolve the tolerance.
    """
    worst = np.zeros(3)
    for _ in range(n_cases):
        T = int(rng.choice(lengths))
        n_b = int(rng.integers(0, min(8, T - 1) + 1))
        n_a = int(rng.integers(0, min(8, T - 1) + 1))
        n_k = int(rng.integers(0, 3))
        tf = random_stable_tf(rng, n_b, n_a, n_k, max_radius=0.9)
        u = rng.normal(0.0, 1.0, T)
        w = rng.normal(0.0, 1.0, T)
        grid, u_param, loss_on = _weighted_filter_loss(tf, u, w)
        worst = np.maximum(worst, parameter_errors([grid.b, grid.a, u_param], loss_on))
    return [CheckRow(f"filter.grad_{x}", float(e), GRAD_TOL) for x, e in zip("bau", worst)]


def check_model_gradients(rng, builders=("wh", "pwh"), T=64):
    """FD check over every trainable scalar of freshly initialized models.

    Three rows, so that the filter backward is checked across row boundaries.
    """
    rows = []
    for kind in builders:
        build = build_wh if kind == "wh" else build_pwh
        model = build(n_b=3, n_a=3, hidden=4, rng=rng)
        u = rng.normal(0.0, 1.0, (3, T, model.in_channels))
        y = rng.normal(0.0, 1.0, (3, T, model.out_channels))
        errs = parameter_errors([p for _, p in model.parameters()], mse_loss_on(model, u, y))
        rows.append(CheckRow(f"model.{kind}", max(errs), GRAD_TOL))
    return rows


def check_pem_gradients(rng, T=64):
    """FD check of the prediction-error loss w.r.t. every model and noise-block scalar."""
    model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
    pm = PemModel(model, noise_n_b=2, noise_n_a=2)
    pm.noise_b.value = rng.normal(0.0, 0.1, pm.noise_b.value.shape)
    pm.noise_a.value = rng.normal(0.0, 0.1, pm.noise_a.value.shape)
    u = rng.normal(0.0, 1.0, (1, T, 1))
    y = rng.normal(0.0, 1.0, (1, T, 1))
    errs = parameter_errors([p for _, p in pm.parameters()],
                            lambda tape: pm.pem_loss_node(tape, u, y))
    return [CheckRow("pem.loss", max(errs), GRAD_TOL)]


def check_quantized_gradients(rng, T=256):
    """FD check of the quantized log-likelihood w.r.t. y_sim and log sigma."""
    qz = Quantizer.uniform(12, -1.0, 1.0)
    y_sim = Parameter(rng.uniform(-0.9, 0.9, (1, T, 1)), "y_sim")
    z = quantize(y_sim.value + rng.normal(0.0, 0.1, y_sim.value.shape), qz)
    lo, hi = qz.bin_edges(z)
    log_sigma = Parameter(np.log(0.1), "log_sigma")
    err_y, err_s = parameter_errors(
        [y_sim, log_sigma],
        lambda tape: quantized_loglik_node(tape, tape.leaf(y_sim), lo, hi, log_sigma),
    )
    return [
        CheckRow("quantized.grad_y_sim", err_y, GRAD_TOL),
        CheckRow("quantized.grad_log_sigma", err_s, GRAD_TOL),
    ]


def run_all(seed=0):
    """Every gradient check on one seeded generator, in a fixed order of rows."""
    rng = np.random.default_rng(seed)
    return (
        check_filter_gradients(rng)
        + check_model_gradients(rng)
        + check_pem_gradients(rng)
        + check_quantized_gradients(rng)
    )
