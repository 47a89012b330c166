"""Minimal reverse-mode tape of constant, leaf and custom nodes.

The tape holds no arithmetic of its own: every operation (a filter grid, a
static net, a loss) is one custom node that brings its forward value and its
vjp. A vjp never writes into the adjoint it is given, so one array may be
sent to several parents. Constants are Python floats or (batch, T, channels)
arrays; a leaf holds its Parameter's value. The tape is rebuilt on every
forward evaluation (define-by-run); creation order is the forward
topological order, and the backward sweep visits nodes in exact reverse
creation order with parents processed in registration order, so repeated
runs are deterministic bit-for-bit. The sweep drops each custom node's vjp
and adjoint once it has passed the node, so the activations a vjp saved are
freed before the next node runs; a swept tape keeps only node values and
leaf adjoints.
"""

from __future__ import annotations

import numpy as np

# unused here; perfbench's binding test reads tape.filter_rows, so the name stays
from .tf_core import filter_rows  # noqa: F401


class Parameter:
    """Named trainable tensor with a gradient slot."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name=""):
        self.value = np.array(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name or '<anon>'}, shape={self.value.shape})"


class Node:
    """One recorded operation: forward value plus the adjoint rule.

    After backward(), a leaf's adjoint holds the loss gradient with respect
    to its value, or None when the loss does not depend on it. A custom node's
    vjp and adjoint are None once the sweep has passed it.
    """

    __slots__ = ("value", "parents", "op", "requires_grad", "vjp", "adjoint")

    def __init__(self, value, parents=(), op="const", requires_grad=False, vjp=None):
        self.value = value
        self.parents = tuple(parents)
        self.op = op
        self.requires_grad = requires_grad
        self.vjp = vjp
        self.adjoint = None


def _as_value(x):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    if arr.ndim == 1:
        return arr[np.newaxis, :, np.newaxis]
    if arr.ndim == 3:
        return arr
    raise ValueError("tape values must be scalars, 1-D series or (batch, T, channels) arrays")


class Tape:
    """Define-by-run computation graph ending in a scalar loss."""

    def __init__(self):
        self._nodes = []
        self._leaves = {}
        self._swept = False

    def _record(self, node):
        self._nodes.append(node)
        return node

    # ---- leaves -------------------------------------------------------

    def constant(self, value, op="const"):
        """Non-differentiable input (a detached value)."""
        return self._record(Node(_as_value(value), op=op))

    def leaf(self, param):
        """Leaf node for a Parameter, memoized so fan-out adjoints accumulate."""
        key = id(param)
        hit = self._leaves.get(key)
        if hit is not None:
            return hit[1]
        node = self._record(Node(param.value, op="param", requires_grad=True))
        self._leaves[key] = (param, node)
        return node

    # ---- custom operations ---------------------------------------------

    def custom(self, value, parents, vjp, op="custom"):
        """Record an operation on parent Nodes with its adjoint rule."""
        parents = tuple(parents)
        grad = any(p.requires_grad for p in parents)
        return self._record(Node(value, parents, op=op, requires_grad=grad, vjp=vjp))

    # ---- reverse sweep --------------------------------------------------

    def backward(self, loss):
        """Accumulate adjoints from a scalar loss node into Parameter.grad.

        A tape is swept once: a vjp may consume the activations it saved,
        and the sweep drops each custom node's vjp (with everything its
        closure captured) and adjoint as soon as it has passed the node.
        """
        if not isinstance(loss, Node) or all(loss is not n for n in self._nodes):
            raise ValueError("backward requires a loss node recorded on this tape")
        if not np.isscalar(loss.value):
            raise ValueError("loss must be a scalar node")
        if self._swept:
            raise ValueError("backward already ran on this tape; record a new one")
        self._swept = True
        loss.adjoint = 1.0
        for node in reversed(self._nodes):
            if node.vjp is None:  # a leaf or a constant
                continue
            grads = () if node.adjoint is None else node.vjp(node.adjoint)
            node.vjp = node.adjoint = None
            for parent, g in zip(node.parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.adjoint is None:
                    # no vjp writes into its incoming adjoint, and the sum
                    # below builds a new array, so g is not copied
                    parent.adjoint = g
                else:
                    parent.adjoint = parent.adjoint + g
        for param, node in self._leaves.values():
            if node.adjoint is None:
                param.grad = np.zeros_like(param.value)
            else:
                param.grad = np.asarray(node.adjoint, dtype=float).reshape(param.value.shape)
