"""Reverse-mode automatic differentiation over dense float64 arrays.

Every op below is polymorphic: given plain ndarrays it returns an ndarray,
given at least one :class:`Node` it returns a Node that remembers how to
push gradients back to its parents. This keeps the training path (graph
mode) and the inference path (plain NumPy) numerically identical, since
both run the exact same forward arithmetic.

Gradient arrays are never mutated in place; accumulation always allocates.
That makes it safe for a vector-Jacobian product to return a view of the
incoming gradient (e.g. ``add``).
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    """Raised when operand shapes do not conform for an op."""


class NonScalarRoot(ValueError):
    """Raised when backward() is called on a non-scalar node."""


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Node:
    """One vertex of the computation graph.

    ``parents`` is a tuple of ``(parent_node, vjp)`` pairs where ``vjp``
    maps the gradient at this node to the gradient contribution at the
    parent (already reduced to the parent's shape).
    """

    __slots__ = ("value", "grad", "parents", "param_ref")

    def __init__(self, value, parents=()):
        self.value = _arr(value)
        self.grad = None
        self.parents = parents
        self.param_ref = None  # (ParamStore, name) for trainable leaves

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={not self.parents})"


def value_of(x) -> np.ndarray:
    """Underlying ndarray of a Node, or the input coerced to float64."""
    return x.value if isinstance(x, Node) else _arr(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(out_value, pairs) -> Node:
    """Wrap ``out_value`` in a Node, keeping only parents that are Nodes."""
    parents = tuple((p, vjp) for p, vjp in pairs if isinstance(p, Node))
    return Node(out_value, parents)


def _any_node(*xs) -> bool:
    return any(isinstance(x, Node) for x in xs)


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a, b):
    av, bv = value_of(a), value_of(b)
    try:
        out = av + bv
    except ValueError:
        raise ShapeMismatch(f"add: shapes {av.shape} and {bv.shape} do not broadcast")
    if not _any_node(a, b):
        return out
    return _make(out, [
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    ])


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    try:
        out = av - bv
    except ValueError:
        raise ShapeMismatch(f"sub: shapes {av.shape} and {bv.shape} do not broadcast")
    if not _any_node(a, b):
        return out
    return _make(out, [
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(-g, bv.shape)),
    ])


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    try:
        out = av * bv
    except ValueError:
        raise ShapeMismatch(f"mul: shapes {av.shape} and {bv.shape} do not broadcast")
    if not _any_node(a, b):
        return out
    return _make(out, [
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    ])


def div(a, b):
    av, bv = value_of(a), value_of(b)
    try:
        out = av / bv
    except ValueError:
        raise ShapeMismatch(f"div: shapes {av.shape} and {bv.shape} do not broadcast")
    if not _any_node(a, b):
        return out
    return _make(out, [
        (a, lambda g: _unbroadcast(g / bv, av.shape)),
        (b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)),
    ])


def neg(a):
    av = value_of(a)
    if not _any_node(a):
        return -av
    return _make(-av, [(a, lambda g: -g)])


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatch(f"matmul: shapes {av.shape} and {bv.shape} do not conform")
    out = av @ bv
    if not _any_node(a, b):
        return out
    return _make(out, [
        (a, lambda g: g @ bv.T),
        (b, lambda g: av.T @ g),
    ])


# ---------------------------------------------------------------------------
# elementwise unary ops


def exp(a):
    ov = np.exp(value_of(a))
    if not _any_node(a):
        return ov
    return _make(ov, [(a, lambda g: g * ov)])


def log(a):
    av = value_of(a)
    ov = np.log(av)
    if not _any_node(a):
        return ov
    return _make(ov, [(a, lambda g: g / av)])


def sin(a):
    av = value_of(a)
    ov = np.sin(av)
    if not _any_node(a):
        return ov
    return _make(ov, [(a, lambda g: g * np.cos(av))])


def cos(a):
    av = value_of(a)
    ov = np.cos(av)
    if not _any_node(a):
        return ov
    return _make(ov, [(a, lambda g: -g * np.sin(av))])


def absolute(a):
    av = value_of(a)
    ov = np.abs(av)
    if not _any_node(a):
        return ov
    sgn = np.sign(av)
    return _make(ov, [(a, lambda g: g * sgn)])


def sigmoid(a):
    av = value_of(a)
    # numerically stable in both tails
    ov = np.where(av >= 0, 1.0 / (1.0 + np.exp(-np.abs(av))),
                  np.exp(-np.abs(av)) / (1.0 + np.exp(-np.abs(av))))
    if not _any_node(a):
        return ov
    return _make(ov, [(a, lambda g: g * ov * (1.0 - ov))])


def relu(a):
    av = value_of(a)
    ov = np.maximum(av, 0.0)
    if not _any_node(a):
        return ov
    gate = (av > 0).astype(np.float64)
    return _make(ov, [(a, lambda g: g * gate)])


def softplus(a):
    av = value_of(a)
    ov = np.maximum(av, 0.0) + np.log1p(np.exp(-np.abs(av)))
    if not _any_node(a):
        return ov
    sig = 1.0 / (1.0 + np.exp(-np.clip(av, -500, 500)))
    return _make(ov, [(a, lambda g: g * sig)])


# ---------------------------------------------------------------------------
# reductions


def sum_(a, axis=None, keepdims=False):
    av = value_of(a)
    ov = av.sum(axis=axis, keepdims=keepdims)
    if not _any_node(a):
        return ov

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, av.shape).copy()

    return _make(ov, [(a, vjp)])


def mean(a, axis=None, keepdims=False):
    av = value_of(a)
    if axis is None:
        n = av.size
    else:
        n = av.shape[axis]
    s = sum_(a, axis=axis, keepdims=keepdims)
    return div(s, float(n)) if isinstance(s, Node) else s / float(n)


# ---------------------------------------------------------------------------
# 3-vector helpers


def cross3(a, b):
    av, bv = value_of(a), value_of(b)
    if av.shape[-1] != 3 or bv.shape[-1] != 3:
        raise ShapeMismatch(f"cross3: last axis must be 3, got {av.shape} x {bv.shape}")
    out = np.cross(av, bv)
    if not _any_node(a, b):
        return out
    return _make(out, [
        (a, lambda g: _unbroadcast(np.cross(bv, g), av.shape)),
        (b, lambda g: _unbroadcast(np.cross(g, av), bv.shape)),
    ])


def normalize3(a):
    """Unit vector along the last axis. Gradient projects out the radial part."""
    av = value_of(a)
    r = np.linalg.norm(av, axis=-1, keepdims=True)
    ov = av / r
    if not _any_node(a):
        return ov

    def vjp(g):
        dot = np.sum(g * ov, axis=-1, keepdims=True)
        return (g - ov * dot) / r

    return _make(ov, [(a, vjp)])


# ---------------------------------------------------------------------------
# structural ops


def concat(parts, axis=-1):
    vals = [value_of(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    if not _any_node(*parts):
        return out
    pairs = []
    offset = 0
    ax = axis if axis >= 0 else out.ndim + axis
    for p, v in zip(parts, vals):
        start, stop = offset, offset + v.shape[ax]
        sl = tuple(slice(None) if i != ax else slice(start, stop) for i in range(out.ndim))
        pairs.append((p, lambda g, sl=sl: g[sl]))
        offset = stop
    return _make(out, pairs)


def reshape(a, shape):
    av = value_of(a)
    ov = av.reshape(shape)
    if not _any_node(a):
        return ov
    return _make(ov, [(a, lambda g: g.reshape(av.shape))])


def narrow(a, start, length, axis=0):
    """Contiguous slice along ``axis``; gradient zero-pads back."""
    av = value_of(a)
    sl = tuple(slice(None) if i != axis else slice(start, start + length)
               for i in range(av.ndim))
    ov = av[sl]
    if not _any_node(a):
        return ov

    def vjp(g):
        full = np.zeros_like(av)
        full[sl] = g
        return full

    return _make(ov, [(a, vjp)])


def gather(a, idx, axis=0):
    """Row lookup (embedding-table style); gradient scatter-adds."""
    av = value_of(a)
    idx = np.asarray(idx)
    ov = np.take(av, idx, axis=axis)
    if not _any_node(a):
        return ov

    def vjp(g):
        full = np.zeros_like(av)
        if axis == 0:
            np.add.at(full, idx, g)
        else:
            full_m = np.moveaxis(full, axis, 0)
            np.add.at(full_m, idx, np.moveaxis(g, axis, 0))
        return full

    return _make(ov, [(a, vjp)])


def repeat(a, k, axis=0):
    """np.repeat along one axis; gradient sums the repeats."""
    av = value_of(a)
    ov = np.repeat(av, k, axis=axis)
    if not _any_node(a):
        return ov

    def vjp(g):
        shp = av.shape[:axis] + (av.shape[axis], k) + av.shape[axis + 1:]
        return g.reshape(shp).sum(axis=axis + 1)

    return _make(ov, [(a, vjp)])


def exclusive_cumprod(a, axis=-1):
    """y_n = prod_{k<n} x_k with y_0 = 1, along ``axis``.

    The gradient formula divides by x, so inputs must be nonzero; callers
    here feed transmittance factors that are strictly positive.
    """
    av = value_of(a)
    shifted = np.roll(av, 1, axis=axis)
    idx0 = tuple(slice(None) if i != (axis % av.ndim) else slice(0, 1)
                 for i in range(av.ndim))
    shifted[idx0] = 1.0
    ov = np.cumprod(shifted, axis=axis)
    if not _any_node(a):
        return ov

    def vjp(g):
        p = g * ov
        tail = np.flip(np.cumsum(np.flip(p, axis=axis), axis=axis), axis=axis)
        return (tail - p) / av

    return _make(ov, [(a, vjp)])


# ---------------------------------------------------------------------------
# rotation-exponential coefficients (elementwise in u = theta^2)
#
# A(u) = sin(t)/t, B(u) = (1-cos t)/t^2, C(u) = (t - sin t)/t^3 with t = sqrt(u).
# Expressed in u they are smooth at zero, which keeps screw-axis gradients
# finite at the all-zeros initialization. Below the switch the 3-term Taylor
# series is used; both branches agree to ~1e-25 there.

_U_SWITCH = 1e-12  # u = theta^2 switch, i.e. theta < 1e-6


def _a_closed(u):
    t = np.sqrt(u)
    return np.sin(t) / np.where(t == 0, 1.0, t)


def _a_series(u):
    return 1.0 - u / 6.0 + u * u / 120.0


def _da_closed(u):
    t = np.sqrt(u)
    t3 = np.where(t == 0, 1.0, t * t * t)
    return (t * np.cos(t) - np.sin(t)) / (2.0 * t3)


def _da_series(u):
    return -1.0 / 6.0 + u / 60.0


def _b_closed(u):
    t = np.sqrt(u)
    return (1.0 - np.cos(t)) / np.where(u == 0, 1.0, u)


def _b_series(u):
    return 0.5 - u / 24.0 + u * u / 720.0


def _db_closed(u):
    t = np.sqrt(u)
    u2 = np.where(u == 0, 1.0, u * u)
    return (t * np.sin(t) / 2.0 - (1.0 - np.cos(t))) / u2


def _db_series(u):
    return -1.0 / 24.0 + u / 360.0


def _c_closed(u):
    t = np.sqrt(u)
    t3 = np.where(t == 0, 1.0, t * t * t)
    return (t - np.sin(t)) / t3


def _c_series(u):
    return 1.0 / 6.0 - u / 120.0 + u * u / 5040.0


def _dc_closed(u):
    t = np.sqrt(u)
    t5 = np.where(t == 0, 1.0, t ** 5)
    return ((1.0 - np.cos(t)) * t - 3.0 * (t - np.sin(t))) / (2.0 * t5)


def _dc_series(u):
    return -1.0 / 120.0 + u / 2520.0


COEF_BRANCHES = {
    # closed-form and small-angle series per coefficient, for the
    # branch-continuity oracle
    "a": (_a_closed, _a_series),
    "b": (_b_closed, _b_series),
    "c": (_c_closed, _c_series),
}


def _coef(u, closed, series, dclosed, dseries, differentiable):
    uv = value_of(u)
    small = uv < _U_SWITCH
    us = np.where(small, 0.0, uv)  # avoid div-by-zero in the closed branch
    ov = np.where(small, series(uv), closed(us))
    if not differentiable:
        return ov
    dv = np.where(small, dseries(uv), dclosed(us))
    return _make(ov, [(u, lambda g: g * dv)])


def rot_coef_a(u):
    """sin(theta)/theta as a function of u = theta**2."""
    return _coef(u, _a_closed, _a_series, _da_closed, _da_series, _any_node(u))


def rot_coef_b(u):
    """(1 - cos(theta)) / theta**2 as a function of u = theta**2."""
    return _coef(u, _b_closed, _b_series, _db_closed, _db_series, _any_node(u))


def rot_coef_c(u):
    """(theta - sin(theta)) / theta**3 as a function of u = theta**2."""
    return _coef(u, _c_closed, _c_series, _dc_closed, _dc_series, _any_node(u))


# ---------------------------------------------------------------------------
# backward


def topo_order(root: Node):
    """Reverse-postorder over the graph reachable from ``root`` (iterative)."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Node):
    """Accumulate d(root)/d(node) for every node reachable from ``root``.

    Tagged parameter leaves additionally flush their gradients into the
    owning ParamStore, so unreachable parameters keep their zero grads.
    """
    if not isinstance(root, Node):
        raise TypeError("backward expects a Node")
    if root.value.size != 1:
        raise NonScalarRoot(f"backward root must be scalar, got shape {root.value.shape}")
    order = topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in node.parents:
            contrib = vjp(node.grad)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib
    for node in order:
        if node.param_ref is not None and node.grad is not None:
            store, name = node.param_ref
            store.accumulate_grad(name, node.grad)
