"""Finite-difference verification of every analytic gradient in the package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import MimoTransferFunction, build_pwh, build_wh
from .pem import PemModel
from .quantized import Quantizer, quantize, quantized_loglik_node
from .tape import Parameter, Tape
from .tf_core import TransferFunction, filter_forward, random_stable_tf

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


def _weighted_loss(params, u, w):
    return float(np.dot(w, filter_forward(params, u)))


def filter_op_gradients(tf, u, w):
    """b, a and u adjoints of the loss w . G(q)u, taken through the filter op
    that training records (a 1x1 MimoTransferFunction grid on a tape)."""
    grid = MimoTransferFunction.siso(tf)
    tape = Tape()
    u_node = tape.input(u)
    y = grid.apply(tape, u_node)
    w3 = np.asarray(w, dtype=float)[np.newaxis, :, np.newaxis]
    loss = tape.custom(float(np.sum(w3 * y.value)), (y,), lambda g: (g * w3,), op="weighted")
    tape.backward(loss)
    return grid.b.grad[0, 0], grid.a.grad[0, 0], u_node.adjoint[0, :, 0]


def check_filter_gradients(rng, n_cases=20, lengths=(8, 32, 128), corrupt=False):
    """FD check of the three filter gradients on random stable cases.

    Pole radius is capped at 0.9: high-order filters with all poles pushed
    against the unit circle amplify the loss by ~1e4, which leaves finite
    differences at step 1e-6 too roundoff-limited to resolve the tolerance.
    """
    worst_b = worst_a = worst_u = 0.0
    for case in range(n_cases):
        T = int(rng.choice(lengths))
        n_b = int(rng.integers(0, min(8, T - 1) + 1))
        n_a = int(rng.integers(0, min(8, T - 1) + 1))
        n_k = int(rng.integers(0, 3))
        tf = random_stable_tf(rng, n_b, n_a, n_k, max_radius=0.9)
        u = rng.normal(0.0, 1.0, T)
        w = rng.normal(0.0, 1.0, T)
        b_bar, a_bar, u_bar = filter_op_gradients(tf, u, w)

        fd_b = central_difference(
            lambda b: _weighted_loss(TransferFunction(b, tf.a, n_k), u, w), tf.b
        )
        worst_b = max(worst_b, float(np.max(relative_errors(b_bar, fd_b), initial=0.0)))

        if n_a > 0:
            fd_a = central_difference(
                lambda a: _weighted_loss(TransferFunction(tf.b, a, n_k), u, w), tf.a
            )
            worst_a = max(
                worst_a, float(np.max(relative_errors(a_bar, fd_a), initial=0.0))
            )

        fd_u = central_difference(lambda uu: _weighted_loss(tf, uu, w), u)
        worst_u = max(worst_u, float(np.max(relative_errors(u_bar, fd_u), initial=0.0)))

    if corrupt:
        worst_b += 1.0
    return [
        CheckRow("filter.grad_b", worst_b, GRAD_TOL),
        CheckRow("filter.grad_a", worst_a, GRAD_TOL),
        CheckRow("filter.grad_u", worst_u, GRAD_TOL),
    ]


def _model_loss_factory(model, u, y):
    def loss_of(values, params):
        saved = [p.value.copy() for p in params]
        try:
            for p, v in zip(params, values):
                p.value = v
            tape = Tape()
            out = model.apply(tape, tape.constant(u))
            err = tape.sub(tape.constant(y), out)
            return tape.mean(tape.square(err)).value
        finally:
            for p, s in zip(params, saved):
                p.value = s

    return loss_of


def check_model_gradients(rng, builders=("wh", "pwh"), T=64):
    """FD check over every trainable scalar of freshly initialized models."""
    rows = []
    for kind in builders:
        if kind == "wh":
            model = build_wh(n_b=3, n_a=3, hidden=4, rng=rng)
        else:
            model = build_pwh(n_b=3, n_a=3, hidden=4, rng=rng)
        named = model.parameters()
        params = [p for _, p in named]
        u = rng.normal(0.0, 1.0, (1, T, model.in_channels))
        y = rng.normal(0.0, 1.0, (1, T, model.out_channels))

        tape = Tape()
        out = model.apply(tape, tape.constant(u))
        err = tape.sub(tape.constant(y), out)
        loss = tape.mean(tape.square(err))
        for p in params:
            p.grad = np.zeros_like(p.value)
        tape.backward(loss)

        loss_of = _model_loss_factory(model, u, y)
        worst = 0.0
        for name, p in named:
            others = [q for q in params]

            def f(v, target=p):
                vals = [
                    v if q is target else q.value for q in others
                ]
                return loss_of(vals, others)

            fd = central_difference(f, p.value)
            worst = max(worst, float(np.max(relative_errors(p.grad, fd), initial=0.0)))
        rows.append(CheckRow(f"model.{kind}", worst, GRAD_TOL))
    return rows


def check_pem_gradients(rng, T=64):
    """FD check of the prediction-error loss w.r.t. the noise-block coefficients."""
    model = build_wh(n_b=2, n_a=2, hidden=3, rng=rng)
    pm = PemModel(model, noise_n_b=2, noise_n_a=2)
    pm.noise_b.value = rng.normal(0.0, 0.1, pm.noise_b.value.shape)
    pm.noise_a.value = rng.normal(0.0, 0.1, pm.noise_a.value.shape)
    u = rng.normal(0.0, 1.0, (1, T, 1))
    y = rng.normal(0.0, 1.0, (1, T, 1))

    named = pm.parameters()
    params = [p for _, p in named]
    tape = Tape()
    loss = pm.pem_loss_node(tape, u, y)
    for p in params:
        p.grad = np.zeros_like(p.value)
    tape.backward(loss)

    worst = 0.0
    for name, p in named:
        def f(v, target=p):
            saved = target.value.copy()
            try:
                target.value = v
                t2 = Tape()
                return pm.pem_loss_node(t2, u, y).value
            finally:
                target.value = saved

        fd = central_difference(f, p.value)
        worst = max(worst, float(np.max(relative_errors(p.grad, fd), initial=0.0)))
    return [CheckRow("pem.loss", worst, GRAD_TOL)]


def check_quantized_gradients(rng, T=256):
    """FD check of the quantized log-likelihood w.r.t. y_sim and log sigma."""
    qz = Quantizer.uniform(12, -1.0, 1.0)
    y_sim = rng.uniform(-0.9, 0.9, (1, T, 1))
    z = quantize(y_sim + rng.normal(0.0, 0.1, y_sim.shape), qz)
    log_sigma = Parameter(np.log(0.1), "log_sigma")

    tape = Tape()
    y_node = tape.input(y_sim)
    loglik = quantized_loglik_node(tape, y_node, z, log_sigma, qz)
    log_sigma.grad = np.zeros_like(log_sigma.value)
    tape.backward(loglik)
    y_grad = y_node.adjoint

    def loss_y(v):
        t2 = Tape()
        return quantized_loglik_node(
            t2, t2.constant(v), z, log_sigma, qz
        ).value

    fd_y = central_difference(loss_y, y_sim)
    worst_y = float(np.max(relative_errors(y_grad, fd_y)))

    def loss_s(v):
        t2 = Tape()
        p = Parameter(v, "ls")
        return quantized_loglik_node(t2, t2.constant(y_sim), z, p, qz).value

    fd_s = central_difference(loss_s, log_sigma.value)
    worst_s = float(np.max(relative_errors(log_sigma.grad, fd_s)))
    return [
        CheckRow("quantized.grad_y_sim", worst_y, GRAD_TOL),
        CheckRow("quantized.grad_log_sigma", worst_s, GRAD_TOL),
    ]


def run_all(seed=0, corrupt=False):
    rng = np.random.default_rng(seed)
    rows = []
    rows += check_filter_gradients(rng, corrupt=corrupt)
    rows += check_model_gradients(rng)
    rows += check_pem_gradients(rng)
    rows += check_quantized_gradients(rng)
    return rows
