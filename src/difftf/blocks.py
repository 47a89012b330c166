"""Model building blocks: MIMO filter grids, static nets, block sequences.

A block-oriented model is an ordered sequence of blocks with matching channel
widths, applied causally to a (batch, T, channels) series. Linear blocks are
grids of SISO rational filters (output channel o sums the filtered input
channels); static blocks act independently at every time step.
"""

from __future__ import annotations

import json

import numpy as np

from .tape import Parameter
from . import tf_grad
from .tf_core import TransferFunction, filter_rows


class MimoTransferFunction:
    """Grid of SISO filters, shape (out_channels, in_channels), shared orders.

    Output channel o is sum_i G_oi(q) u_i. The grid is stored as two trainable
    tensors: b of shape (out, in, n_b + 1) and a of shape (out, in, n_a).
    """

    kind = "tf"

    def __init__(self, out_channels, in_channels, n_b, n_a, n_k, rng=None, b=None, a=None):
        self.out_channels = int(out_channels)
        self.in_channels = int(in_channels)
        self.n_b = int(n_b)
        self.n_a = int(n_a)
        self.n_k = int(n_k)
        shape_b = (self.out_channels, self.in_channels, self.n_b + 1)
        shape_a = (self.out_channels, self.in_channels, self.n_a)
        if b is None:
            # a starts at zero (a stable FIR filter) so iteration 0 cannot diverge
            rng = rng or np.random.default_rng()
            b = rng.normal(0.0, 0.1, size=shape_b)
        if a is None:
            a = np.zeros(shape_a)
        b = np.asarray(b, dtype=float).reshape(shape_b)
        a = np.asarray(a, dtype=float).reshape(shape_a)
        self.b = Parameter(b, "b")
        self.a = Parameter(a, "a")

    @classmethod
    def siso(cls, tf):
        """Wrap one TransferFunction as a 1x1 grid."""
        return cls(
            1, 1, tf.n_b, tf.n_a, tf.n_k,
            b=tf.b[np.newaxis, np.newaxis, :],
            a=tf.a[np.newaxis, np.newaxis, :],
        )

    def cell(self, o, i):
        return TransferFunction(self.b.value[o, i], self.a.value[o, i], self.n_k)

    def parameters(self):
        return [("b", self.b), ("a", self.a)]

    def _forward(self, x):
        """Cells, per-cell outputs and the (batch, T, out_channels) output for x."""
        cells = [[self.cell(o, i) for i in range(self.in_channels)]
                 for o in range(self.out_channels)]
        cell_y = [[filter_rows(c, x[:, :, i]) for i, c in enumerate(row)] for row in cells]
        y = np.zeros((x.shape[0], x.shape[1], self.out_channels))
        for o, row in enumerate(cell_y):
            for y_oi in row:
                y[:, :, o] += y_oi
        return cells, cell_y, y

    def simulate(self, x):
        """Plain forward on a (batch, T, in_channels) array."""
        return self._forward(x)[2]

    def apply(self, tape, x_node):
        """Record one MIMO node; backward splits into per-cell SISO gradients."""
        b_node = tape.leaf(self.b)
        a_node = tape.leaf(self.a)
        x = x_node.value
        if x.shape[2] != self.in_channels:
            raise ValueError(
                f"width mismatch: block expects {self.in_channels} channels, got {x.shape[2]}"
            )
        cells, cell_y, y = self._forward(x)

        def vjp(g):
            b_bar = np.zeros_like(self.b.value) if b_node.requires_grad else None
            a_bar = np.zeros_like(self.a.value) if a_node.requires_grad else None
            x_bar = np.zeros_like(x) if x_node.requires_grad else None
            for o in range(self.out_channels):
                g_o = g[:, :, o]
                for i in range(self.in_channels):
                    cell = cells[o][i]
                    if b_bar is not None:
                        sig = tf_grad.sens_b0_rows(cell, x[:, :, i])
                        b_bar[o, i] = tf_grad.grad_b_rows(g_o, sig, self.n_b)
                    if a_bar is not None and self.n_a > 0:
                        sig = tf_grad.sens_a1_rows(cell, cell_y[o][i])
                        a_bar[o, i] = tf_grad.grad_a_rows(g_o, sig, self.n_a)
                    if x_bar is not None:
                        x_bar[:, :, i] += tf_grad.grad_u_rows(cell, g_o)
            return (b_bar, a_bar, x_bar)

        return tape.custom(y, (b_node, a_node, x_node), vjp, op="mimo_filter")

    def to_config(self):
        return {
            "kind": self.kind,
            "out_channels": self.out_channels,
            "in_channels": self.in_channels,
            "n_b": self.n_b,
            "n_a": self.n_a,
            "n_k": self.n_k,
            "b": self.b.value.tolist(),
            "a": self.a.value.tolist(),
        }

    @classmethod
    def from_config(cls, cfg):
        return cls(
            cfg["out_channels"], cfg["in_channels"], cfg["n_b"], cfg["n_a"], cfg["n_k"],
            b=np.asarray(cfg["b"]), a=np.asarray(cfg["a"]),
        )


def _feature_major(a, G, K):
    """(batch, T, G*K) series as a contiguous (G, K, batch*T) array."""
    return np.ascontiguousarray(a.reshape(-1, G * K).T).reshape(G, K, -1)


def _time_major(a, batch, T):
    """(G, K, batch*T) array as a contiguous (batch, T, G*K) series."""
    # stacking rows writes along time; a plain transposed copy loops over K innermost
    return np.stack(tuple(a.reshape(-1, batch * T)), axis=1).reshape(batch, T, -1)


def _stack(nets):
    """Weights of independent nets stacked on a leading net axis."""
    columns = zip(*([p.value for _, p in net.parameters()] for net in nets))
    return tuple(np.stack(values) for values in columns)


def static_nets_forward(w1, b1, w2, b2, x):
    """G independent tanh nets y = W2 tanh(W1 x + b1) + b2 on a (batch, T, G*I) series.

    Net k reads input channels [k*I, (k+1)*I) and writes output channels
    [k*O, (k+1)*O). Weights are stacked per net: w1 (G, H, I), b1 (G, H),
    w2 (G, O, H), b2 (G, O). Returns the (batch, T, G*O) output, the input as
    (G, I, N) and the hidden activations as one contiguous (G, H, N) array,
    N = batch*T, so that per-unit broadcasts and reductions run along rows.
    """
    G, H, I = w1.shape
    xT = _feature_major(x, G, I)
    # a width-1 product is written as a broadcast: matmul over a length-1 axis is slow
    hid = w1 * xT if I == 1 else np.matmul(w1, xT)
    hid += b1[:, :, np.newaxis]
    np.tanh(hid, out=hid)
    yT = np.matmul(w2, hid)
    yT += b2[:, :, np.newaxis]
    return _time_major(yT, x.shape[0], x.shape[1]), xT, hid


def static_nets_vjp(w1, w2, xT, hid, g, need_x=True):
    """Stacked adjoints (w1, b1, w2, b2, x) of static_nets_forward for the output adjoint g.

    Consumes hid: it is overwritten with damp = 1 - hid^2, so the vjp
    allocates nothing the size of the hidden array. The pre-activation
    adjoint z = damp * W2^T g is never formed either: every reduction of z is
    written as one of damp against rows of length N.
    """
    G, H, I = w1.shape
    O = w2.shape[1]
    batch, T, _ = g.shape
    gT = _feature_major(g, G, O)
    w2_bar = np.matmul(gT, hid.transpose(0, 2, 1))
    damp = np.multiply(hid, hid, out=hid)
    np.subtract(1.0, damp, out=damp)
    gx = (gT[:, :, np.newaxis] * xT[:, np.newaxis]).reshape(G, O * I, -1)
    b1_bar = np.einsum("goh,gho->gh", w2, np.matmul(damp, gT.transpose(0, 2, 1)))
    m = np.matmul(damp, gx.transpose(0, 2, 1)).reshape(G, H, O, I)
    w1_bar = np.einsum("goh,ghoi->ghi", w2, m)
    x_bar = None
    if need_x:
        w2w1 = (w2[:, :, np.newaxis, :] * w1.transpose(0, 2, 1)[:, np.newaxis]).reshape(G, -1, H)
        x_bar = np.empty((batch, T, G * I))
        x_barT = x_bar.reshape(-1, G * I).T.reshape(G, I, -1)  # a view: written in place
        np.einsum("gon,goin->gin", gT, np.matmul(w2w1, damp).reshape(G, O, I, -1), out=x_barT)
    return w1_bar, b1_bar, w2_bar, gT.sum(axis=2), x_bar


def _apply_static_nets(tape, nets, x_node):
    """Record independent nets as one `mlp` node; the vjp splits the stacked
    adjoints back onto each net's Parameters."""
    width = sum(net.in_channels for net in nets)
    if x_node.value.shape[2] != width:
        raise ValueError(
            f"width mismatch: static block expects {width} channels, got {x_node.value.shape[2]}"
        )
    leaves = [tape.leaf(p) for net in nets for _, p in net.parameters()]
    w1, b1, w2, b2 = _stack(nets)
    y, xT, hid = static_nets_forward(w1, b1, w2, b2, x_node.value)

    def vjp(g):
        *bars, x_bar = static_nets_vjp(w1, w2, xT, hid, g, x_node.requires_grad)
        return (*(bar[k] for k in range(len(nets)) for bar in bars), x_bar)

    return tape.custom(y, (*leaves, x_node), vjp, op="mlp")


class Mlp:
    """Static one-hidden-layer tanh network: y_t = W2 tanh(W1 x_t + c1) + c2."""

    kind = "mlp"

    def __init__(self, in_width, hidden, out_width, rng=None, weights=None):
        self.in_channels = int(in_width)
        self.hidden = int(hidden)
        self.out_channels = int(out_width)
        if weights is None:
            rng = rng or np.random.default_rng()
            w1 = rng.uniform(-1, 1, (self.hidden, self.in_channels)) / np.sqrt(self.in_channels)
            b1 = rng.uniform(-1, 1, self.hidden) / np.sqrt(self.in_channels)
            w2 = rng.uniform(-1, 1, (self.out_channels, self.hidden)) / np.sqrt(self.hidden)
            b2 = rng.uniform(-1, 1, self.out_channels) / np.sqrt(self.hidden)
        else:
            w1, b1, w2, b2 = (np.asarray(w, dtype=float) for w in weights)
        self.w1 = Parameter(w1, "w1")
        self.b1 = Parameter(b1, "b1")
        self.w2 = Parameter(w2, "w2")
        self.b2 = Parameter(b2, "b2")

    def parameters(self):
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def simulate(self, x):
        return static_nets_forward(*_stack([self]), x)[0]

    def apply(self, tape, x_node):
        return _apply_static_nets(tape, [self], x_node)

    def to_config(self):
        return {
            "kind": self.kind,
            "in_width": self.in_channels,
            "hidden": self.hidden,
            "out_width": self.out_channels,
            "w1": self.w1.value.tolist(),
            "b1": self.b1.value.tolist(),
            "w2": self.w2.value.tolist(),
            "b2": self.b2.value.tolist(),
        }

    @classmethod
    def from_config(cls, cfg):
        return cls(
            cfg["in_width"], cfg["hidden"], cfg["out_width"],
            weights=(cfg["w1"], cfg["b1"], cfg["w2"], cfg["b2"]),
        )


class ParallelMlp:
    """Independent SISO networks, one per channel (no cross-channel mixing)."""

    kind = "parallel_mlp"

    def __init__(self, nets):
        self.nets = list(nets)
        for net in self.nets:
            if net.in_channels != 1 or net.out_channels != 1:
                raise ValueError("parallel nets must be one-input-one-output")
        if len({net.hidden for net in self.nets}) > 1:
            raise ValueError("parallel nets must share one hidden width")
        self.in_channels = len(self.nets)
        self.out_channels = len(self.nets)

    def parameters(self):
        out = []
        for k, net in enumerate(self.nets):
            out.extend((f"net{k}.{name}", p) for name, p in net.parameters())
        return out

    def simulate(self, x):
        return static_nets_forward(*_stack(self.nets), x)[0]

    def apply(self, tape, x_node):
        return _apply_static_nets(tape, self.nets, x_node)

    def to_config(self):
        return {"kind": self.kind, "nets": [net.to_config() for net in self.nets]}

    @classmethod
    def from_config(cls, cfg):
        return cls([Mlp.from_config(c) for c in cfg["nets"]])


class PolyStatic:
    """Fixed per-channel polynomial nonlinearity (ascending coefficients).

    Not trainable; used for synthetic ground-truth systems where an exactly
    reproducible smooth nonlinearity is wanted.
    """

    kind = "poly"

    def __init__(self, coeffs):
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        self.in_channels = len(self.coeffs)
        self.out_channels = len(self.coeffs)

    def parameters(self):
        return []

    def _eval(self, x):
        cols = [
            np.polynomial.polynomial.polyval(x[:, :, k], c)
            for k, c in enumerate(self.coeffs)
        ]
        return np.stack(cols, axis=2)

    def simulate(self, x):
        return self._eval(x)

    def apply(self, tape, x_node):
        x = x_node.value
        y = self._eval(x)

        def vjp(g):
            slope = np.empty_like(x)
            for k, c in enumerate(self.coeffs):
                dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
                slope[:, :, k] = np.polynomial.polynomial.polyval(x[:, :, k], dc)
            return (g * slope,)

        return tape.custom(y, (x_node,), vjp, op="poly")

    def to_config(self):
        return {"kind": self.kind, "coeffs": [c.tolist() for c in self.coeffs]}

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["coeffs"])


_BLOCK_KINDS = {
    cls.kind: cls for cls in (MimoTransferFunction, Mlp, ParallelMlp, PolyStatic)
}


class BlockModel:
    """Causal sequence of blocks with matching channel widths."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        if not self.blocks:
            raise ValueError("a model needs at least one block")
        for left, right in zip(self.blocks, self.blocks[1:]):
            if left.out_channels != right.in_channels:
                raise ValueError(
                    f"adjacent channel widths differ: {left.out_channels} "
                    f"vs {right.in_channels}"
                )

    @property
    def in_channels(self):
        return self.blocks[0].in_channels

    @property
    def out_channels(self):
        return self.blocks[-1].out_channels

    def parameters(self):
        out = []
        for k, block in enumerate(self.blocks):
            out.extend((f"block{k}.{name}", p) for name, p in block.parameters())
        return out

    def simulate(self, u):
        """Plain forward on a (batch, T, in_channels) array, no gradients."""
        x = np.asarray(u, dtype=float)
        if x.ndim == 1:
            x = x[np.newaxis, :, np.newaxis]
        for block in self.blocks:
            x = block.simulate(x)
        return x

    def apply(self, tape, u_node):
        x = u_node
        for block in self.blocks:
            x = block.apply(tape, x)
        return x

    def to_config(self):
        return {"blocks": [block.to_config() for block in self.blocks]}

    @classmethod
    def from_config(cls, cfg):
        blocks = []
        for c in cfg["blocks"]:
            if c["kind"] not in _BLOCK_KINDS:
                raise ValueError(f"unknown block kind: {c['kind']!r}")
            blocks.append(_BLOCK_KINDS[c["kind"]].from_config(c))
        return cls(blocks)


def build_wh(n_b=8, n_a=8, hidden=10, rng=None):
    """Wiener-Hammerstein sequence: filter (n_k=1), SISO net, filter (n_k=0)."""
    rng = rng or np.random.default_rng()
    return BlockModel([
        MimoTransferFunction(1, 1, n_b, n_a, n_k=1, rng=rng),
        Mlp(1, hidden, 1, rng=rng),
        MimoTransferFunction(1, 1, n_b, n_a, n_k=0, rng=rng),
    ])


def build_pwh(n_b=12, n_a=12, hidden=10, rng=None):
    """Parallel Wiener-Hammerstein sequence.

    A one-input-two-output filter grid, two independent SISO nets, then a
    two-input-one-output filter grid; all filters share n_b, n_a and n_k = 1.
    """
    rng = rng or np.random.default_rng()
    return BlockModel([
        MimoTransferFunction(2, 1, n_b, n_a, n_k=1, rng=rng),
        ParallelMlp([Mlp(1, hidden, 1, rng=rng), Mlp(1, hidden, 1, rng=rng)]),
        MimoTransferFunction(1, 2, n_b, n_a, n_k=1, rng=rng),
    ])


class Normalization:
    """Per-channel affine scaling fitted on training data."""

    def __init__(self, u_mean, u_std, y_mean, y_std):
        self.u_mean = np.asarray(u_mean, dtype=float)
        self.u_std = np.asarray(u_std, dtype=float)
        self.y_mean = np.asarray(y_mean, dtype=float)
        self.y_std = np.asarray(y_std, dtype=float)

    @classmethod
    def identity(cls, u_channels=1, y_channels=1):
        return cls(
            np.zeros(u_channels), np.ones(u_channels),
            np.zeros(y_channels), np.ones(y_channels),
        )

    @classmethod
    def from_data(cls, u, y=None):
        """Statistics over batch and time; y=None leaves the output untouched."""
        u_mean = u.mean(axis=(0, 1))
        u_std = u.std(axis=(0, 1))
        u_std = np.where(u_std > 0, u_std, 1.0)
        if y is None:
            return cls(u_mean, u_std, np.zeros(1), np.ones(1))
        y_mean = y.mean(axis=(0, 1))
        y_std = y.std(axis=(0, 1))
        y_std = np.where(y_std > 0, y_std, 1.0)
        return cls(u_mean, u_std, y_mean, y_std)

    def normalize_u(self, u):
        return (u - self.u_mean) / self.u_std

    def normalize_y(self, y):
        return (y - self.y_mean) / self.y_std

    def denormalize_y(self, y):
        return y * self.y_std + self.y_mean

    def to_config(self):
        return {
            "u_mean": self.u_mean.tolist(),
            "u_std": self.u_std.tolist(),
            "y_mean": self.y_mean.tolist(),
            "y_std": self.y_std.tolist(),
        }

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["u_mean"], cfg["u_std"], cfg["y_mean"], cfg["y_std"])


class ModelFile:
    """On-disk model: block sequence plus optional noise model and scaling."""

    def __init__(self, model, normalization=None, noise_filter=None,
                 log_sigma_e=None, meta=None):
        self.model = model
        self.normalization = normalization
        self.noise_filter = noise_filter
        self.log_sigma_e = log_sigma_e
        self.meta = meta or {}

    def simulate(self, u):
        """Open-loop simulation in original units of a (batch, T, Cu) input."""
        norm = self.normalization or Normalization.identity(u.shape[2])
        y_norm = self.model.simulate(norm.normalize_u(u))
        return norm.denormalize_y(y_norm)

    def to_dict(self):
        doc = {"version": 1}
        doc.update(self.model.to_config())
        doc["normalization"] = (
            self.normalization.to_config() if self.normalization else None
        )
        if self.noise_filter is not None:
            doc["noise_filter"] = {
                "b": self.noise_filter.b.tolist(),
                "a": self.noise_filter.a.tolist(),
                "n_k": self.noise_filter.n_k,
            }
        else:
            doc["noise_filter"] = None
        doc["log_sigma_e"] = self.log_sigma_e
        doc["meta"] = self.meta
        return doc

    @classmethod
    def from_dict(cls, doc):
        """Parse a model document; a missing key or a malformed entry raises ValueError."""
        try:
            model = BlockModel.from_config(doc)
            norm_cfg = doc.get("normalization")
            norm = Normalization.from_config(norm_cfg) if norm_cfg else None
            nf_cfg = doc.get("noise_filter")
            noise = (
                TransferFunction(np.asarray(nf_cfg["b"]), np.asarray(nf_cfg["a"]), nf_cfg["n_k"])
                if nf_cfg
                else None
            )
        except KeyError as exc:
            raise ValueError(f"model file lacks key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"malformed model file: {exc}") from None
        return cls(model, norm, noise, doc.get("log_sigma_e"), doc.get("meta"))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
