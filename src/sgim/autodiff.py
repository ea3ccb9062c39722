"""Minimal reverse-mode autodiff over dense float64 arrays. No pipeline
module imports it, as each stage differentiates by hand: it is the engine
of the graph oracle in tests/graph_reference.py, and tests/test_autodiff.py
checks its primitives.

A graph is built per evaluation (define-by-run); ``backward`` walks it once
in deterministic topological order. Values are plain numpy arrays: scalars
are shape (), everything else is 2-D. Broadcasting is limited to adding or
multiplying a (1, k) row against an (n, k) matrix.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, DimensionError, ParameterError, UsageError


def array(data) -> np.ndarray:
    """Coerce to a C-order float64 array, rejecting NaN/Inf."""
    a = np.asarray(data, dtype=np.float64, order="C")
    if not np.all(np.isfinite(a)):
        raise DegenerateInputError("array contains NaN or Inf")
    return a


class Node:
    """One vertex of the computation graph.

    ``grad`` is populated by ``backward`` and has the same shape as ``value``.
    Leaves are Nodes with no parents; constants are just leaves whose grads
    nobody reads.
    """

    __slots__ = ("value", "op", "parents", "grad", "_vjp")

    def __init__(self, value, op: str = "leaf", parents: Sequence["Node"] = (),
                 vjp: Callable | None = None):
        self.value = array(value)
        self.op = op
        self.parents = tuple(parents)
        self.grad: np.ndarray | None = None
        self._vjp = vjp

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def leaf(data) -> Node:
    return Node(data)


def constant(data) -> Node:
    """A leaf whose gradient is computed but never consumed."""
    return Node(data, op="const")


def _rowsum(g: np.ndarray) -> np.ndarray:
    return g.sum(axis=0, keepdims=True)


def _binary_shapes(a: Node, b: Node, name: str) -> bool:
    """Returns True when b is a (1, k) row broadcast against a's rows."""
    if a.value.shape == b.value.shape:
        return False
    if (a.value.ndim == 2 and b.value.shape == (1, a.value.shape[1])):
        return True
    raise DimensionError(f"{name}: shapes {a.value.shape} and {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    bcast = _binary_shapes(a, b, "add")
    return Node(a.value + b.value, "add", (a, b),
                lambda g: (g, _rowsum(g) if bcast else g))


def sub(a: Node, b: Node) -> Node:
    bcast = _binary_shapes(a, b, "sub")
    return Node(a.value - b.value, "sub", (a, b),
                lambda g: (g, -_rowsum(g) if bcast else -g))


def mul_elementwise(a: Node, b: Node) -> Node:
    bcast = _binary_shapes(a, b, "mul_elementwise")
    av, bv = a.value, b.value
    return Node(av * bv, "mul", (a, b),
                lambda g: (g * bv, _rowsum(g * av) if bcast else g * av))


def scale(a: Node, c: float) -> Node:
    c = float(c)
    return Node(a.value * c, "scale", (a,), lambda g: (g * c,))


def tanh(a: Node) -> Node:
    out = np.tanh(a.value)
    return Node(out, "tanh", (a,), lambda g: (g * (1.0 - out * out),))


def max_with_zero(a: Node) -> Node:
    av = a.value
    return Node(np.maximum(av, 0.0), "max_with_zero", (a,),
                lambda g: (g * (av > 0.0),))


def sum_all(a: Node) -> Node:
    return Node(a.value.sum(), "sum", (a,),
                lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def transpose(a: Node) -> Node:
    if a.value.ndim != 2:
        raise DimensionError("transpose expects a 2-D array")
    return Node(np.ascontiguousarray(a.value.T), "transpose", (a,),
                lambda g: (np.ascontiguousarray(g.T),))


def slice_rows(a: Node, start: int, stop: int) -> Node:
    if a.value.ndim != 2:
        raise DimensionError("slice_rows expects a 2-D array")
    n = a.value.shape[0]
    if not (0 <= start < stop <= n):
        raise DimensionError(f"slice_rows: [{start}, {stop}) out of range for {n} rows")

    def vjp(g):
        full = np.zeros_like(a.value)
        full[start:stop] = g
        return (full,)

    return Node(a.value[start:stop].copy(), "slice_rows", (a,), vjp)


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul: inner dims {a.value.shape} x {b.value.shape}")
    av, bv = a.value, b.value
    return Node(av @ bv, "matmul", (a, b),
                lambda g: (g @ bv.T, av.T @ g))


def row_l2_norm(a: Node) -> Node:
    """Per-row Euclidean norm, shape (n, 1). Zero rows get zero gradient."""
    if a.value.ndim != 2:
        raise DimensionError("row_l2_norm expects a 2-D array")
    norms = np.sqrt((a.value ** 2).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)

    def vjp(g):
        return (np.where(norms > 0.0, g / safe, 0.0) * a.value,)

    return Node(norms, "row_l2_norm", (a,), vjp)


def l2_normalize_rows(a: Node) -> Node:
    if a.value.ndim != 2:
        raise DimensionError("l2_normalize_rows expects a 2-D array")
    norms = np.sqrt((a.value ** 2).sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise DegenerateInputError("l2_normalize_rows: zero-norm row")
    out = a.value / norms

    def vjp(g):
        # d/dx (x/|x|) applied to g: (g - y (g.y)) / |x| per row
        dot = (g * out).sum(axis=1, keepdims=True)
        return ((g - out * dot) / norms,)

    return Node(out, "l2_normalize_rows", (a,), vjp)


def row_softmax(a: Node, temperature: float) -> Node:
    """Row-wise softmax of value/temperature, max-subtracted for stability."""
    if temperature <= 0.0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    if a.value.ndim != 2:
        raise DimensionError("row_softmax expects a 2-D array")
    z = a.value / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot) / temperature,)

    return Node(out, "row_softmax", (a,), vjp)


def backward(root: Node) -> dict[Node, np.ndarray]:
    """Populate .grad on every node reachable from a scalar root.

    Returns the node-to-gradient map. Traversal order is a deterministic
    function of the graph, so repeated runs produce bit-identical grads.
    """
    if root.value.shape != ():
        raise UsageError(f"backward needs a scalar root, got shape {root.value.shape}")
    topo: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in reversed(node.parents):
            stack.append((p, False))
    for n in topo:
        n.grad = np.zeros_like(n.value)
    root.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._vjp is None:
            continue
        for parent, g in zip(node.parents, node._vjp(node.grad)):
            parent.grad = parent.grad + g
    return {n: n.grad for n in topo}
