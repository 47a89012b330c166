"""Spans recorded from outside the package, by rebinding its functions.

A Tracer times calls into difftf's layers without any edit to the package:
`install` finds every binding of each timed function, by object identity, in
every loaded `difftf` module (and the defining class for methods) and rebinds
it to a timing wrapper; `uninstall` puts the originals back. Spans are kept
in memory as (id, parent, name, start, end, phase) tuples and written out
once, at the end of a run.

Aggregates are kept per span name: calls, inclusive time (outermost span of
that name only, so recursion or nesting under the same name is not counted
twice) and self time (duration minus the direct child spans it covers).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# tape node ops grouped as the per-op metrics name them
ELEMENTWISE_OPS = frozenset({"add", "sub", "scale", "square", "mean", "sum"})
LEAF_OPS = frozenset({"const", "input", "param"})
TAPE_OPS = ("mimo_filter", "filter", "mlp", "channel", "concat", "quantized_loglik", "elementwise")


def op_group(op):
    if op in ELEMENTWISE_OPS:
        return "elementwise"
    if op in LEAF_OPS:
        return "leaf"
    return op


class Tracer:
    """In-memory span recorder with per-name aggregates since the last reset."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []  # open frames: [span_id, covered child seconds]
        self._next_id = 0
        self._open = Counter()
        self.fwd_mark = None  # end of the last recorded tape node, see _timed_record
        self.reset()

    def reset(self):
        """Start a new aggregation window; recorded spans are kept."""
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[name] += 1
            if not self._open[name]:
                self.inclusive[name] += dur
            self.self_time[name] += dur - frame[1]
            self.spans.append((span_id, parent, name, t0, t1, self.phase))

    def interval(self, name, t0, t1):
        """Record a span measured by the caller; it is no child of the open span.

        Used for tape forward segments, which contain (already closed) spans
        of their own and must not be subtracted from their enclosing span.
        """
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self.calls[name] += 1
        self.inclusive[name] += t1 - t0
        self.spans.append((span_id, parent, name, t0, t1, self.phase))

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1, phase in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": t0, "end": t1, "phase": phase,
                }) + "\n")


def _wrapper(tracer, name, fn, counter=None):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if counter is not None:
            counter(tracer, args, kwargs)
        return tracer.call(name, fn, args, kwargs)

    return timed


def _count_lfilter(tracer, args, kwargs):
    b, a, x = args[:3]
    samples = int(np.size(x))
    tracer.counts["tf_core.lfilter.samples"] += samples
    # direct form II transposed: one multiply-add per numerator tap and per
    # denominator tap after a0, for every output sample
    tracer.counts["tf_core.lfilter.flops"] += 2 * (np.size(b) + np.size(a) - 1) * samples


def _timed_vjp(tracer, name, vjp):
    return lambda g: tracer.call(name, vjp, (g,), {})


def _timed_record(tracer, record):
    """Tape._record: the gap since the previous node is that node's forward time."""

    @functools.wraps(record)
    def timed(tape, node):
        now = perf_counter()
        group = op_group(node.op)
        if tracer.fwd_mark is not None:
            tracer.interval(f"tape.fwd.{group}", tracer.fwd_mark, now)
        tracer.counts["tape.nodes"] += 1
        if node.vjp is not None:
            node.vjp = _timed_vjp(tracer, f"tape.vjp.{group}", node.vjp)
        out = record(tape, node)
        tracer.fwd_mark = perf_counter()
        return out

    return timed


def difftf_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "difftf" or name.startswith("difftf."))]


def timed_targets():
    """(span name, owner, attribute, counter) for every timed function."""
    from difftf import blocks, cli, datagen, fileio, optim, pem, quantized, tape, tf_core, tf_grad

    targets = [
        ("tf_core.lfilter", tf_core, "lfilter", _count_lfilter),
        ("tf_core.filter_rows", tf_core, "filter_rows", None),
    ]
    for fn in ("sens_b0_rows", "sens_a1_rows", "grad_u_rows", "grad_b_rows", "grad_a_rows"):
        targets.append((f"tf_grad.{fn}", tf_grad, fn, None))
    targets += [
        ("tape.backward", tape.Tape, "backward", None),
        ("blocks.MimoTransferFunction.simulate", blocks.MimoTransferFunction, "simulate", None),
        ("blocks.Mlp.simulate", blocks.Mlp, "simulate", None),
        ("blocks.ParallelMlp.simulate", blocks.ParallelMlp, "simulate", None),
        ("pem.pem_loss_node", pem.PemModel, "pem_loss_node", None),
        ("quantized.quantized_loglik_node", quantized, "quantized_loglik_node", None),
        ("optim.Adam.step", optim.Adam, "step", None),
        ("optim.train", optim, "train", None),
        ("datagen.generate", datagen, "generate_wh_colored", None),
        ("datagen.generate", datagen, "generate_pwh_quantized", None),
        ("fileio.read_dataset", fileio, "read_dataset", None),
        ("fileio.write", fileio, "write_csv", None),
        ("fileio.write", fileio, "write_dataset", None),
        ("fileio.write", fileio, "write_json", None),
        ("cli.build", cli, "_build_model", None),
    ]
    return targets


class Installation:
    """The rebindings made by `install`, undone by `uninstall`."""

    def __init__(self):
        self.bindings = []  # (owner, attribute, original)
        self.originals = []

    def rebind(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self.bindings.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)
        self.bindings.clear()


def install(tracer):
    """Rebind every binding of every timed function to a timing wrapper."""
    from difftf.tape import Tape

    inst = Installation()
    modules = difftf_modules()
    for name, owner, attr, counter in timed_targets():
        original = vars(owner)[attr]
        wrapped = _wrapper(tracer, name, original, counter)
        inst.originals.append(original)
        if isinstance(owner, type):
            inst.rebind(owner, attr, original, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    inst.rebind(module, key, original, wrapped)
    record = vars(Tape)["_record"]
    inst.originals.append(record)
    inst.rebind(Tape, "_record", record, _timed_record(tracer, record))
    return inst


def unwrapped_references(originals):
    """Bindings in difftf modules (and their classes) still holding an original."""
    found = []
    wanted = {id(fn) for fn in originals}
    for module in difftf_modules():
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in owners:
            for key, value in vars(owner).items():
                if id(value) in wanted:
                    found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return found
