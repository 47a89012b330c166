"""Minimal reverse-mode tape for composing arithmetic and custom nodes.

Node values are either Python floats (scalar nodes) or float arrays of shape
(batch, T, channels). The tape is rebuilt on every forward evaluation
(define-by-run); creation order is the forward topological order, and the
backward sweep visits nodes in exact reverse creation order with parents
processed in registration order, so repeated runs are deterministic
bit-for-bit.
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

    After backward(), adjoint holds the loss gradient with respect to value,
    or None when the loss does not depend on the node.
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

    def input(self, value):
        """Differentiable input; its adjoint is available after backward()."""
        return self._record(Node(_as_value(value), op="input", requires_grad=True))

    def detach(self, node):
        """Copy a node's value into a constant, cutting gradient flow there."""
        return self.constant(np.copy(node.value) if not np.isscalar(node.value) else node.value)

    def leaf(self, param):
        """Leaf node for a Parameter, memoized so fan-out adjoints accumulate."""
        key = id(param)
        hit = self._leaves.get(key)
        if hit is not None:
            return hit[1]
        node = self._record(Node(param.value, op="param", requires_grad=True))
        self._leaves[key] = (param, node)
        return node

    def _wrap(self, x):
        if isinstance(x, Node):
            return x
        if isinstance(x, Parameter):
            return self.leaf(x)
        return self.constant(x)

    def _wrap_raw(self, x):
        """Wrap coefficient-like values without the time-series shape promotion."""
        if isinstance(x, Node):
            return x
        if isinstance(x, Parameter):
            return self.leaf(x)
        return self._record(Node(np.asarray(x, dtype=float), op="const"))

    # ---- elementwise arithmetic --------------------------------------

    def add(self, x, y):
        x, y = self._wrap(x), self._wrap(y)
        return self._record(
            Node(
                x.value + y.value,
                (x, y),
                op="add",
                requires_grad=x.requires_grad or y.requires_grad,
                vjp=lambda g: (g, g),
            )
        )

    def sub(self, x, y):
        x, y = self._wrap(x), self._wrap(y)
        return self._record(
            Node(
                x.value - y.value,
                (x, y),
                op="sub",
                requires_grad=x.requires_grad or y.requires_grad,
                vjp=lambda g: (g, -g),
            )
        )

    def scale(self, x, c):
        x = self._wrap(x)
        c = float(c)
        return self._record(
            Node(
                c * x.value,
                (x,),
                op="scale",
                requires_grad=x.requires_grad,
                vjp=lambda g: (c * g,),
            )
        )

    def square(self, x):
        x = self._wrap(x)
        xv = x.value
        return self._record(
            Node(
                xv * xv,
                (x,),
                op="square",
                requires_grad=x.requires_grad,
                vjp=lambda g: (2.0 * xv * g,),
            )
        )

    def mean(self, x):
        x = self._wrap(x)
        size = np.asarray(x.value).size
        return self._record(
            Node(
                float(np.mean(x.value)),
                (x,),
                op="mean",
                requires_grad=x.requires_grad,
                vjp=lambda g: (np.full_like(np.asarray(x.value, dtype=float), g / size),),
            )
        )

    def total(self, x):
        x = self._wrap(x)
        return self._record(
            Node(
                float(np.sum(x.value)),
                (x,),
                op="sum",
                requires_grad=x.requires_grad,
                vjp=lambda g: (np.full_like(np.asarray(x.value, dtype=float), g),),
            )
        )

    # ---- custom operations ---------------------------------------------

    def custom(self, value, parents, vjp, op="custom"):
        """Record an externally computed operation with its adjoint rule."""
        parents = tuple(self._wrap(p) for p in parents)
        return self._record(
            Node(
                value,
                parents,
                op=op,
                requires_grad=any(p.requires_grad for p in parents),
                vjp=vjp,
            )
        )

    # ---- reverse sweep --------------------------------------------------

    def backward(self, loss):
        """Accumulate adjoints from a scalar loss node into Parameter.grad.

        A tape is swept once: a vjp may consume the activations it saved.
        """
        if not isinstance(loss, Node) or all(loss is not n for n in self._nodes):
            raise ValueError("backward requires a loss node recorded on this tape")
        if not np.isscalar(loss.value):
            raise ValueError("loss must be a scalar node")
        if self._swept:
            raise ValueError("backward already ran on this tape; record a new one")
        self._swept = True
        for node in self._nodes:
            node.adjoint = None
        loss.adjoint = 1.0
        for node in reversed(self._nodes):
            if node.adjoint is None or node.vjp is None:
                continue
            grads = node.vjp(node.adjoint)
            for parent, g in zip(node.parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.adjoint is None:
                    parent.adjoint = g if np.isscalar(g) else np.array(g)
                else:
                    parent.adjoint = parent.adjoint + g
        for param, node in self._leaves.values():
            if node.adjoint is None:
                param.grad = np.zeros_like(param.value)
            else:
                param.grad = np.asarray(node.adjoint, dtype=float).reshape(param.value.shape)
