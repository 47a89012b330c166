"""Minimal reverse-mode tape for composing filters, arithmetic and custom nodes.

Node values are either Python floats (scalar nodes) or float arrays of shape
(batch, T, channels). The tape is rebuilt on every forward evaluation
(define-by-run); creation order is the forward topological order, and the
backward sweep visits nodes in exact reverse creation order with parents
processed in registration order, so repeated runs are deterministic
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from . import tf_grad
from .tf_core import TransferFunction, filter_rows


class Parameter:
    """Named trainable tensor with a gradient slot."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name=""):
        self.value = np.array(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name or '<anon>'}, shape={self.value.shape})"


class ParameterStore:
    """Ordered registry of uniquely named parameters with adjoint slots."""

    def __init__(self):
        self._params = {}

    def register(self, name, value):
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        param = value if isinstance(value, Parameter) else Parameter(value, name)
        param.name = name
        self._params[name] = param
        return param

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params.keys())

    def zero_grad(self):
        for p in self._params.values():
            p.grad = np.zeros_like(p.value)

    def snapshot(self):
        return {name: p.value.copy() for name, p in self._params.items()}

    def restore(self, snap):
        for name, value in snap.items():
            self._params[name].value = value.copy()


class Node:
    """One recorded operation: forward value plus the adjoint rule."""

    __slots__ = ("value", "parents", "op", "requires_grad", "vjp", "adjoint")

    def __init__(self, value, parents=(), op="const", requires_grad=False, vjp=None):
        self.value = value
        self.parents = tuple(parents)
        self.op = op
        self.requires_grad = requires_grad
        self.vjp = vjp
        self.adjoint = None

    def grad_value(self):
        """Accumulated adjoint after backward(); zeros if unreachable."""
        if self.adjoint is None:
            if np.isscalar(self.value):
                return 0.0
            return np.zeros_like(self.value)
        return self.adjoint


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

    # ---- filters and custom operations ---------------------------------

    def filter(self, b, a, n_k, u):
        """SISO filtering node; b and a may be Parameters or fixed arrays."""
        b_node, a_node, u_node = self._wrap_raw(b), self._wrap_raw(a), self._wrap(u)
        params = TransferFunction(np.asarray(b_node.value), np.asarray(a_node.value), n_k)
        x = u_node.value
        if x.shape[2] != 1:
            raise ValueError("filter expects a single-channel input")
        x2 = x[:, :, 0]
        y2 = filter_rows(params, x2)

        def vjp(g):
            g2 = g[:, :, 0]
            b_bar = a_bar = u_bar = None
            if b_node.requires_grad:
                b_bar = tf_grad.grad_b_rows(g2, tf_grad.sens_b0_rows(params, x2), params.n_b)
            if a_node.requires_grad and params.n_a > 0:
                a_bar = tf_grad.grad_a_rows(g2, tf_grad.sens_a1_rows(params, y2), params.n_a)
            elif a_node.requires_grad:
                a_bar = np.zeros(0)
            if u_node.requires_grad:
                u_bar = tf_grad.grad_u_rows(params, g2)[:, :, np.newaxis]
            return (b_bar, a_bar, u_bar)

        return self._record(
            Node(
                y2[:, :, np.newaxis],
                (b_node, a_node, u_node),
                op="filter",
                requires_grad=b_node.requires_grad
                or a_node.requires_grad
                or u_node.requires_grad,
                vjp=vjp,
            )
        )

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
