"""Model building blocks: MIMO filter grids, static nets, block sequences.

A block-oriented model is an ordered sequence of blocks with matching channel
widths, applied causally to a (batch, T, channels) series. Linear blocks are
grids of SISO rational filters (output channel o sums the filtered input
channels); static blocks act independently at every time step.

The cells of a filter grid and the nets of a parallel static block are
independent branches. On a process allowed more than one CPU, branches of
MIN_BRANCH_SAMPLES samples or more run on two threads (see run_branches);
lfilter, tanh and matmul release the GIL. Every branch writes its own slice
or returns its own array, and sums across branches stay on the calling
thread in the serial order, so the results are bit for bit those of the
serial path.
"""

from __future__ import annotations

import json
import os
import queue
import threading
from functools import partial

import numpy as np

from .tape import Parameter
from . import tf_grad
from .tf_core import FilterDivergenceError, TransferFunction, filter_rows

_worker = None  # run_branches' worker, started on first use
_worker_lock = threading.Lock()  # so that concurrent first uses start one worker


def _forget_worker():
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


# a forked child has no worker thread: it starts its own on first use
os.register_at_fork(after_in_child=_forget_worker)


class _Branches:
    """The jobs of one run_branches call, claimed one at a time in list order
    by the calling thread and the worker, whichever is free first.

    A thread never waits for a job nobody has started: if the worker wakes
    late, the calling thread runs the rest itself and the worker finds
    nothing left. The calling thread waits only for a job the worker is
    running.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.size = len(jobs)
        self.results = [None] * self.size
        self.errors = [None] * self.size
        self.claimed = 0
        self.running = 0  # jobs the worker has claimed and not finished
        self.cond = threading.Condition(threading.Lock())

    def claim(self, on_worker):
        """Index of the next unclaimed job, or None when every job is claimed."""
        with self.cond:
            k = self.claimed
            if k == self.size:
                return None
            self.claimed += 1
            self.running += on_worker
            return k

    def run(self, k, on_worker):
        """Run job k, keeping its result or exception."""
        try:
            self.results[k] = self.jobs[k]()
        except BaseException as exc:  # raised on the calling thread
            self.errors[k] = exc
        if on_worker:
            with self.cond:
                self.running -= 1
                if not self.running:
                    self.cond.notify()

    def drain(self, on_worker):
        """Run unclaimed jobs until none is left."""
        while (k := self.claim(on_worker)) is not None:
            self.run(k, on_worker)

    def wait(self):
        """Block until no job is running on the worker, then hand back the
        results and exceptions and drop every reference to jobs and results:
        a worker that wakes for this call only after it is over holds
        nothing the caller has let go of."""
        with self.cond:
            while self.running:
                self.cond.wait()
            done = self.results, self.errors
            self.jobs = self.results = self.errors = None
        return done


class _Worker:
    """One long-lived daemon thread that joins the run_branches calls handed to it.

    A call is handed over only while the worker waits for one. A worker
    still busy with, or not yet woken for, an earlier call (its CPU taken
    by other work) is left out, so calls never queue up behind it. It keeps
    no reference to a call once it has drained it, so the arrays its jobs
    hold are freed as soon as the caller drops them.
    """

    def __init__(self):
        self.calls = queue.SimpleQueue()
        self.idle = False
        self.lock = threading.Lock()  # concurrent callers hand over one call at a time
        threading.Thread(target=self._serve, name="difftf-branches", daemon=True).start()

    def _serve(self):
        while True:
            self.idle = True
            branches = self.calls.get()
            branches.drain(True)
            del branches

    def hand_off(self, branches):
        """Queue branches for the worker if it is waiting for a call."""
        with self.lock:
            if not self.idle:
                return
            self.idle = False
        self.calls.put(branches)


# Handing jobs to the worker and back costs about 0.1-0.7 ms on a 2-vCPU VM,
# and while the host takes CPU time from the VM (steal) the two threads gain
# little. A branch over fewer samples than this has too little work to pay
# for that steadily: a PWH model's forward at 40960 samples a branch (three
# hand-offs) ran at 0.78 to 1.02 of its serial time from one 20 s run to the
# next as steal went from 5 % to 23 %, against 0.71 to 0.96 for training
# steps at 81920.
MIN_BRANCH_SAMPLES = 65536


def branch_threads(n_jobs, samples):
    """Whether n_jobs independent branches of `samples` samples each run on
    two threads: there is more than one, each is large enough, and this
    process may run on more than one CPU."""
    return (n_jobs > 1 and samples >= MIN_BRANCH_SAMPLES
            and len(os.sched_getaffinity(0)) > 1)


def run_branches(jobs, samples):
    """Results of the independent callables jobs, in list order.

    On two threads when branch_threads(len(jobs), samples): the calling
    thread runs job 0 and one long-lived worker thread joins in, each
    claiming the next job in list order when it is free; the first
    exception in list order is raised once every job has finished.
    Otherwise the jobs run one after the other on the calling thread. A job
    must not call run_branches itself.
    """
    if not branch_threads(len(jobs), samples):
        return [job() for job in jobs]
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = _Worker()
        worker = _worker
    branches = _Branches(jobs)
    first = branches.claim(False)
    worker.hand_off(branches)
    branches.run(first, False)
    branches.drain(False)
    results, errors = branches.wait()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


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
        if x.shape[2] != self.in_channels:
            raise ValueError(
                f"width mismatch: block expects {self.in_channels} channels, got {x.shape[2]}"
            )
        pairs, cells, cell_y, y = self._forward(x)

        def vjp(g):
            # every cell writes its own b and a slice and returns its share of
            # x_bar; input channel i is written from output 0's share and added
            # into from the further outputs', in the serial order
            b_bar = np.empty_like(self.b.value) if b_node.requires_grad else None
            a_bar = np.empty_like(self.a.value) if a_node.requires_grad else None
            batch = x.shape[0]
            pad = max(self.n_k + self.n_b, self.n_a)  # the largest lag
            if b_bar is not None:
                x_gap = [tf_grad.gapped(x[:, :, i], pad) for i in range(self.in_channels)]

            def cell_adjoints(o, i, cell, y_oi):
                # w = A^-T g_o, reversed back while copied into the gapped buffer
                all_pole = TransferFunction(np.ones(1), cell.a)
                w = tf_grad.gapped(tf_grad.grad_u_rows(all_pole, g[:, :, o]), pad)
                if b_bar is not None:
                    b_bar[o, i] = tf_grad.grad_b_rows(w, x_gap[i], self.n_b, self.n_k)
                if a_bar is not None and self.n_a > 0:
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


def _stack(nets):
    """Weights of independent nets stacked on a leading net axis."""
    columns = zip(*([p.value for _, p in net.parameters()] for net in nets))
    return tuple(np.stack(values) for values in columns)


def _nets(arrays, k):
    """Net k's slices (leading axis kept) of arrays stacked on the net axis."""
    return [None if a is None else a[k : k + 1] for a in arrays]


def static_nets_forward(w1, b1, w2, b2, x):
    """G independent tanh nets y = W2 tanh(W1 x + b1) + b2 on a (batch, T, G*I) series.

    Net k reads input channels [k*I, (k+1)*I) and writes output channels
    [k*O, (k+1)*O). Weights are stacked per net: w1 (G, H, I), b1 (G, H),
    w2 (G, O, H), b2 (G, O). Returns the (batch, T, G*O) output, the input as
    (G, I, N) and the hidden activations as one contiguous (G, H, N) array,
    N = batch*T, so that per-unit broadcasts and reductions run along rows.
    With branch threads, each net writes its own slice of hid and yT.
    """
    G, H, I = w1.shape
    xT = _feature_major(x, G, I)
    hid = np.empty((G, H, xT.shape[2]))
    yT = np.empty((G, w2.shape[1], xT.shape[2]))
    arrays = (w1, b1, w2, b2, xT, hid, yT)
    if branch_threads(G, xT.shape[2]):
        run_branches([partial(_nets_forward_into, *_nets(arrays, k)) for k in range(G)],
                     xT.shape[2])
    else:
        _nets_forward_into(*arrays)
    return _time_major(yT, x.shape[0], x.shape[1]), xT, hid


def _nets_forward_into(w1, b1, w2, b2, xT, hid, yT):
    # a width-1 product is written as a broadcast: matmul over a length-1 axis is slow
    if w1.shape[2] == 1:
        np.multiply(w1, xT, out=hid)
    else:
        np.matmul(w1, xT, out=hid)
    hid += b1[:, :, np.newaxis]
    np.tanh(hid, out=hid)
    np.matmul(w2, hid, out=yT)
    yT += b2[:, :, np.newaxis]


def static_nets_vjp(w1, w2, xT, hid, g, need_x=True):
    """Stacked adjoints (w1, b1, w2, b2, x) of static_nets_forward for the output adjoint g.

    Consumes hid: it is overwritten with damp = 1 - hid^2, so the vjp
    allocates nothing the size of the hidden array. The pre-activation
    adjoint z = damp * W2^T g is never formed either: every reduction of z is
    written as one of damp against rows of length N. With branch threads,
    each net writes its own slice of the stacked adjoints.
    """
    G, H, I = w1.shape
    O = w2.shape[1]
    batch, T, _ = g.shape
    gT = _feature_major(g, G, O)
    bars = (np.empty_like(w1), np.empty((G, H)), np.empty_like(w2), np.empty((G, O)))
    x_bar = x_barT = None
    if need_x:
        x_bar = np.empty((batch, T, G * I))
        x_barT = x_bar.reshape(-1, G * I).T.reshape(G, I, -1)  # a view: written in place
    arrays = (w1, w2, xT, hid, gT, *bars, x_barT)
    if branch_threads(G, xT.shape[2]):
        run_branches([partial(_nets_vjp_into, *_nets(arrays, k)) for k in range(G)],
                     xT.shape[2])
    else:
        _nets_vjp_into(*arrays)
    return (*bars, x_bar)


def _nets_vjp_into(w1, w2, xT, hid, gT, w1_bar, b1_bar, w2_bar, b2_bar, x_barT):
    G, H, I = w1.shape
    O = w2.shape[1]
    np.matmul(gT, hid.transpose(0, 2, 1), out=w2_bar)
    damp = np.multiply(hid, hid, out=hid)
    np.subtract(1.0, damp, out=damp)
    gx = (gT[:, :, np.newaxis] * xT[:, np.newaxis]).reshape(G, O * I, -1)
    np.einsum("goh,gho->gh", w2, np.matmul(damp, gT.transpose(0, 2, 1)), out=b1_bar)
    m = np.matmul(damp, gx.transpose(0, 2, 1)).reshape(G, H, O, I)
    np.einsum("goh,ghoi->ghi", w2, m, out=w1_bar)
    if x_barT is not None:
        w2w1 = (w2[:, :, np.newaxis, :] * w1.transpose(0, 2, 1)[:, np.newaxis]).reshape(G, -1, H)
        np.einsum("gon,goin->gin", gT, np.matmul(w2w1, damp).reshape(G, O, I, -1), out=x_barT)
    np.sum(gT, axis=2, out=b2_bar)


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
