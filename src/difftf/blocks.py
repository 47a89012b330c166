"""Model building blocks: MIMO filter grids, static nets, block sequences.

A block-oriented model is an ordered sequence of blocks with matching channel
widths, applied causally to a (batch, T, channels) series. Linear blocks are
grids of SISO rational filters (output channel o sums the filtered input
channels); static blocks act independently at every time step.

The cells of a filter grid and the nets of a parallel static block are
independent branches. On a process allowed more than one CPU, branches of
MIN_BRANCH_SAMPLES samples or more run on the calling thread and one pool
thread, which gets only the jobs the caller has not reached (see
run_branches); lfilter, tanh and matmul release the GIL. Every branch writes
its own slice or returns its own array, and sums across branches stay on the
calling thread in the serial order, so the results are bit for bit those of
the serial path.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .tape import Parameter
from . import tf_grad
from .tf_core import FilterDivergenceError, TransferFunction, filter_rows


def _new_pool():
    global _pool
    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="difftf-branches")


# run_branches' one worker thread, started on first use; a forked child has
# no worker thread and gets a pool of its own
_new_pool()
os.register_at_fork(after_in_child=_new_pool)


# Handing two no-op jobs through run_branches costs about 8 us on a 2-vCPU
# AMD EPYC VM with under 0.5 % steal (CPU time the host takes from the VM).
# There a PWH model's forward (simulate) and its forward plus backward ran at
# these fractions of their serial time (medians of 41 alternating pairs, the
# range over two runs):
#
#     batch x T   samples a branch   simulate    forward + backward
#     10 x 4096        40960         0.60-0.65   0.52-0.74
#      8 x 4096        32768         0.62-0.65   0.63-0.69
#      4 x 4096        16384         0.66-0.68   0.70-0.97
#      2 x 4096         8192         0.74-0.96   0.83-0.99
#      2 x 1024         2048         1.10-1.19   1.28-1.30
#      1 x  256          256         1.78-1.81   1.47-1.50
#
# 32768 is the smallest power of two at which every shape gained clearly in
# every run; below it the gain came and went.
MIN_BRANCH_SAMPLES = 32768


def branch_threads(n_jobs, samples):
    """Whether n_jobs independent branches of `samples` samples each run on
    two threads: there is more than one, each is large enough, and this
    process may run on more than one CPU."""
    return (n_jobs > 1 and samples >= MIN_BRANCH_SAMPLES
            and len(os.sched_getaffinity(0)) > 1)


def _run_job(todo, k):
    # the worker reads job k from a list the call empties before it returns,
    # so a job cancelled but still queued holds none of the caller's arrays
    return todo[k]()


def _outcome(call):
    """(call(), None), or (None, the exception call raised)."""
    try:
        return call(), None
    except BaseException as exc:  # raised on the calling thread
        return None, exc


def run_branches(jobs, samples):
    """Results of the independent callables jobs, in list order.

    `samples` is the work of each job in samples of a filter cell; a caller
    whose samples cost more weighs them up (the quantized log-likelihood
    counts each of its samples as two). On two threads when
    branch_threads(len(jobs), samples): jobs 1.. go to
    the pool's one worker thread and the calling thread runs job 0, then
    takes back every job the worker has not started (Future.cancel) and
    runs it too, so it waits only for jobs the worker is running. The first
    exception in list order is raised once every job has finished.
    Otherwise the jobs run one after the other on the calling thread. A job
    must not call run_branches itself.
    """
    if not branch_threads(len(jobs), samples):
        return [job() for job in jobs]
    todo = list(jobs)
    futures = [_pool.submit(_run_job, todo, k) for k in range(1, len(todo))]
    outcomes = [_outcome(todo[0])]
    outcomes += [_outcome(todo[k]) if f.cancel() else f for k, f in enumerate(futures, 1)]
    outcomes = [o if type(o) is tuple else _outcome(o.result) for o in outcomes]
    todo.clear()
    failed = next((exc for _, exc in outcomes if exc is not None), None)
    if failed is None:
        return [result for result, _ in outcomes]
    # the traceback will hold this frame: with nothing here holding the
    # exception, the caller's frames (a half-swept tape among them) are freed
    # with it and not left to the cycle collector
    outcomes = futures = None
    try:
        raise failed
    finally:
        failed = None


def _check_sizes(kind, **sizes):
    """Raise ValueError naming the first of a block's sizes below 1."""
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"a {kind} block needs {name} >= 1, got {size}")


def _check_width(width, x):
    """Raise ValueError unless the (batch, T, channels) series x has `width` channels."""
    if x.shape[2] != width:
        raise ValueError(f"width mismatch: block expects {width} channels, got {x.shape[2]}")


def _in_cell(o, i, fn, *args):
    """fn(*args), a FilterDivergenceError it raises re-raised naming grid cell (o, i)."""
    try:
        return fn(*args)
    except FilterDivergenceError as exc:
        raise FilterDivergenceError(exc.t_index, exc.batch_index, (o, i)) from None


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
        _check_sizes(self.kind, out_channels=self.out_channels, in_channels=self.in_channels)
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
        """The (o, i) pairs in output-major order, the cells and their outputs
        in that order, and the (batch, T, out_channels) output for x."""
        _check_width(self.in_channels, x)
        pairs = [(o, i) for o in range(self.out_channels) for i in range(self.in_channels)]
        cells = [self.cell(o, i) for o, i in pairs]
        jobs = [partial(_in_cell, o, i, filter_rows, cell, x[:, :, i])
                for (o, i), cell in zip(pairs, cells)]
        cell_y = run_branches(jobs, x.shape[0] * x.shape[1])
        if len(pairs) == 1:
            return pairs, cells, cell_y, cell_y[0][:, :, np.newaxis]
        # each channel is written from its first cell, not added into zeros
        y = np.empty((x.shape[0], x.shape[1], self.out_channels))
        for (o, i), y_oi in zip(pairs, cell_y):
            if i == 0:
                y[:, :, o] = y_oi
            else:
                y[:, :, o] += y_oi
        return pairs, cells, cell_y, y

    def simulate(self, x):
        """Plain forward on a (batch, T, in_channels) array."""
        return self._forward(x)[3]

    def apply(self, tape, x_node):
        """Record one MIMO node; backward runs one reverse all-pole pass per cell."""
        b_node = tape.leaf(self.b)
        a_node = tape.leaf(self.a)
        x = x_node.value
        pairs, cells, cell_y, y = self._forward(x)

        def vjp(g):
            # every cell writes its own b and a slice and returns its share of
            # x_bar; input channel i is written from output 0's share and added
            # into from the further outputs', in the serial order
            b_bar = np.empty_like(self.b.value)
            a_bar = np.empty_like(self.a.value)
            batch = x.shape[0]
            pad = max(self.n_k + self.n_b, self.n_a)  # the largest lag
            x_gap = [tf_grad.gapped(x[:, :, i], pad) for i in range(self.in_channels)]

            def cell_adjoints(o, i, cell, y_oi):
                # w = A^-T g_o, reversed back while copied into the gapped buffer
                all_pole = TransferFunction(np.ones(1), cell.a)
                w = tf_grad.gapped(tf_grad.grad_u_rows(all_pole, g[:, :, o]), pad)
                b_bar[o, i] = tf_grad.grad_b_rows(w, x_gap[i], self.n_b, self.n_k)
                if self.n_a > 0:
                    a_bar[o, i] = tf_grad.grad_a_rows(w, tf_grad.gapped(y_oi, pad), self.n_a)
                if x_node.requires_grad:
                    return tf_grad.ungapped(tf_grad.grad_x_rows(cell, w), batch, pad)
                return None

            jobs = [partial(_in_cell, o, i, cell_adjoints, o, i, cell, y_oi)
                    for (o, i), cell, y_oi in zip(pairs, cells, cell_y)]
            x_bar_cells = run_branches(jobs, batch * x.shape[1])
            x_bar = None
            if x_node.requires_grad:
                x_bar = np.empty_like(x)
                for (o, i), x_bar_oi in zip(pairs, x_bar_cells):
                    if o == 0:
                        x_bar[:, :, i] = x_bar_oi
                    else:
                        x_bar[:, :, i] += x_bar_oi
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


def _nets_forward(nets, x):
    """Independent tanh nets of one in, hidden and out width on a (batch, T, G*I) series.

    Net k reads input channels [k*I, (k+1)*I) and writes output channels
    [k*O, (k+1)*O). Returns the (batch, T, G*O) output, the input as (G, I, N)
    and the hidden activations as one contiguous (G, H, N) array, N = batch*T,
    so that per-unit broadcasts and reductions run along rows. Each net is one
    run_branches job writing its own [k] slices of the hidden and output arrays.
    """
    G, net = len(nets), nets[0]
    _check_width(G * net.in_channels, x)
    xT = _feature_major(x, G, net.in_channels)
    # one hidden and one output array for all nets: a hidden array per net made
    # a PWH training step at 20 x 4096 about 25 % slower, and not only in the
    # nets: the forward of the filter grids and the likelihood slowed too (the
    # cause is unverified)
    hid = np.empty((G, net.hidden, xT.shape[2]))
    yT = np.empty((G, net.out_channels, xT.shape[2]))
    jobs = [partial(n._forward_into, xT[k], hid[k], yT[k]) for k, n in enumerate(nets)]
    run_branches(jobs, xT.shape[2])
    return _time_major(yT, x.shape[0], x.shape[1]), xT, hid


def _apply_static_nets(tape, nets, x_node):
    """Record independent nets as one `mlp` node whose vjp runs one job per net."""
    leaves = [tape.leaf(p) for net in nets for _, p in net.parameters()]
    y, xT, hid = _nets_forward(nets, x_node.value)

    def vjp(g):
        G, I = len(nets), nets[0].in_channels
        gT = _feature_major(g, G, nets[0].out_channels)
        x_bar, x_barT = None, [None] * G
        if x_node.requires_grad:
            x_bar = np.empty(x_node.value.shape)
            x_barT = x_bar.reshape(-1, G * I).T.reshape(G, I, -1)  # a view: written in place
        jobs = [partial(net._vjp_into, xT[k], hid[k], gT[k], x_barT[k])
                for k, net in enumerate(nets)]
        bars = run_branches(jobs, xT.shape[2])
        return (*(bar for net_bars in bars for bar in net_bars), x_bar)

    return tape.custom(y, (*leaves, x_node), vjp, op="mlp")


class Mlp:
    """Static one-hidden-layer tanh network: y_t = W2 tanh(W1 x_t + c1) + c2."""

    kind = "mlp"

    def __init__(self, in_width, hidden, out_width, rng=None, weights=None):
        self.in_channels = int(in_width)
        self.hidden = int(hidden)
        self.out_channels = int(out_width)
        _check_sizes(self.kind, in_width=self.in_channels, hidden=self.hidden,
                     out_width=self.out_channels)
        if weights is None:
            rng = rng or np.random.default_rng()
            w1 = rng.uniform(-1, 1, (self.hidden, self.in_channels)) / np.sqrt(self.in_channels)
            b1 = rng.uniform(-1, 1, self.hidden) / np.sqrt(self.in_channels)
            w2 = rng.uniform(-1, 1, (self.out_channels, self.hidden)) / np.sqrt(self.hidden)
            b2 = rng.uniform(-1, 1, self.out_channels) / np.sqrt(self.hidden)
        else:
            w1, b1, w2, b2 = (np.asarray(w, dtype=float) for w in weights)
            want = [(self.hidden, self.in_channels), (self.hidden,),
                    (self.out_channels, self.hidden), (self.out_channels,)]
            got = [w.shape for w in (w1, b1, w2, b2)]
            if got != want:
                raise ValueError(f"mlp weights have shapes {got}, its sizes give {want}")
        self.w1 = Parameter(w1, "w1")
        self.b1 = Parameter(b1, "b1")
        self.w2 = Parameter(w2, "w2")
        self.b2 = Parameter(b2, "b2")

    def parameters(self):
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def simulate(self, x):
        return _nets_forward([self], x)[0]

    def _forward_into(self, xT, hid, yT):
        """Write the (H, N) hidden activations and the (O, N) output for the (I, N) input."""
        # a width-1 product is written as a broadcast: matmul over a length-1 axis is slow
        if self.in_channels == 1:
            np.multiply(self.w1.value, xT, out=hid)
        else:
            np.matmul(self.w1.value, xT, out=hid)
        hid += self.b1.value[:, np.newaxis]
        np.tanh(hid, out=hid)
        np.matmul(self.w2.value, hid, out=yT)
        yT += self.b2.value[:, np.newaxis]

    def _vjp_into(self, xT, hid, gT, x_barT):
        """Adjoints (w1, b1, w2, b2) of _forward_into for the (O, N) output adjoint gT;
        the (I, N) input adjoint goes into x_barT unless it is None.

        Consumes hid: it is overwritten with damp = 1 - hid^2, so the vjp
        allocates nothing the size of the hidden array. The pre-activation
        adjoint z = damp * W2^T g is never formed either: every reduction of z
        is written as one of damp against rows of length N.
        """
        w1, w2 = self.w1.value, self.w2.value
        H, I, O = self.hidden, self.in_channels, self.out_channels
        w2_bar = np.matmul(gT, hid.T)
        damp = np.multiply(hid, hid, out=hid)
        np.subtract(1.0, damp, out=damp)
        gx = (gT[:, np.newaxis] * xT[np.newaxis]).reshape(O * I, -1)
        b1_bar = np.einsum("oh,ho->h", w2, np.matmul(damp, gT.T))
        m = np.matmul(damp, gx.T).reshape(H, O, I)
        w1_bar = np.einsum("oh,hoi->hi", w2, m)
        if x_barT is not None:
            w2w1 = (w2[:, np.newaxis, :] * w1.T[np.newaxis]).reshape(-1, H)
            np.einsum("on,oin->in", gT, np.matmul(w2w1, damp).reshape(O, I, -1), out=x_barT)
        return w1_bar, b1_bar, w2_bar, np.sum(gT, axis=1)

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
        _check_sizes(self.kind, nets=len(self.nets))
        for net in self.nets:
            if net.in_channels != 1 or net.out_channels != 1:
                raise ValueError("parallel nets must be one-input-one-output")
        # the nets' hidden activations are one (nets, hidden, N) allocation
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
        return _nets_forward(self.nets, x)[0]

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
        _check_sizes(self.kind, channels=len(self.coeffs))
        if not all(np.isfinite(c).all() for c in self.coeffs):
            raise ValueError("poly coefficients must be finite")
        self.in_channels = len(self.coeffs)
        self.out_channels = len(self.coeffs)

    def parameters(self):
        return []

    def _eval(self, x):
        _check_width(self.in_channels, x)
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


def _channel_moments(column, x):
    """Per-channel mean and std (a zero std taken as 1) of a (batch, T, C) array."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = x.mean(axis=(0, 1)), x.std(axis=(0, 1))
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise ValueError(f"the {column} column (channel {k}) overflows its statistics: "
                         f"mean {mean[k]:.6g}, std {std[k]:.6g}")
    return mean, np.where(std > 0, std, 1.0)


class Normalization:
    """Per-channel affine scaling fitted on training data."""

    def __init__(self, u_mean, u_std, y_mean, y_std):
        self.u_mean = np.asarray(u_mean, dtype=float)
        self.u_std = np.asarray(u_std, dtype=float)
        self.y_mean = np.asarray(y_mean, dtype=float)
        self.y_std = np.asarray(y_std, dtype=float)

    @classmethod
    def from_data(cls, u, y=None):
        """Statistics over batch and time; y=None leaves the output untouched.

        Raises ValueError, naming the column, when a mean or std overflows.
        """
        u_mean, u_std = _channel_moments("u", u)
        if y is None:
            return cls(u_mean, u_std, np.zeros(1), np.ones(1))
        return cls(u_mean, u_std, *_channel_moments("y", y))

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


def _check_numbers(model, norm, log_sigma_e):
    """Raise ValueError naming the first model-file entry that holds a non-finite
    number or, for a normalization std, a number <= 0."""
    entries = [(name, p.value) for name, p in model.parameters()]
    if norm is not None:
        entries += [(f"normalization.{key}", v) for key, v in norm.to_config().items()]
    if log_sigma_e is not None:
        entries.append(("log_sigma_e", log_sigma_e))
    for name, value in entries:
        value = np.asarray(value, dtype=float)
        if not np.isfinite(value).all():
            raise ValueError(f"model file entry {name} holds a non-finite value "
                             f"({value[~np.isfinite(value)][0]})")
        if name.endswith("_std") and np.any(value <= 0):  # u_std or y_std
            raise ValueError(f"model file entry {name} must be > 0, got {np.min(value):.6g}")


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
        norm = self.normalization
        if norm is None:  # e.g. a truth.json, whose model works in original units
            return self.model.simulate(u)
        return norm.denormalize_y(self.model.simulate(norm.normalize_u(u)))

    def to_dict(self):
        doc = {"version": 1}
        doc.update(self.model.to_config())
        doc["normalization"] = (
            self.normalization.to_config() if self.normalization else None
        )
        nf = self.noise_filter
        doc["noise_filter"] = None if nf is None else {
            "b": nf.b.tolist(), "a": nf.a.tolist(), "n_k": nf.n_k}
        doc["log_sigma_e"] = self.log_sigma_e
        doc["meta"] = self.meta
        return doc

    @classmethod
    def from_dict(cls, doc):
        """Parse a model document; a missing key, a malformed entry, a non-finite
        number or a normalization std <= 0 raises ValueError."""
        try:
            model = BlockModel.from_config(doc)
            norm_cfg = doc.get("normalization")
            norm = Normalization.from_config(norm_cfg) if norm_cfg else None
            nf_cfg = doc.get("noise_filter")
            noise = TransferFunction(np.asarray(nf_cfg["b"]), np.asarray(nf_cfg["a"]),
                                     nf_cfg["n_k"]) if nf_cfg else None
            _check_numbers(model, norm, doc.get("log_sigma_e"))
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
