"""Reverse-mode automatic differentiation over dense float64 arrays.

Every op below is polymorphic, and one rule, in :func:`_make`, decides
what it returns: a :class:`Node` that remembers how to push gradients back
to its parents when at least one operand is a Node, the plain ndarray
otherwise. Training and inference therefore run the exact same forward
arithmetic. Frozen parameters are plain arrays (``ParamStore.leaf``), so
what depends on nothing but them and on data builds no graph; inference
freezes every group and builds none at all.

Ops are as coarse as the hot path needs: :func:`mlp` is a whole fully
connected stack (matmuls, biases and activations) in one node, evaluated in
cache-sized row blocks, so a field network costs one node and one backward
visit.

Gradient arrays are never mutated in place; accumulation always allocates.
That makes it safe for a vector-Jacobian product to return a view of the
incoming gradient (e.g. ``add``).
"""

from __future__ import annotations

import ctypes

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

    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        self.value = _arr(value)
        self.grad = None
        self.parents = parents

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


def _make(out_value, pairs):
    """An op's result: a Node whose parents are the operands in ``pairs``
    that are Nodes, or ``out_value`` itself when none is (no graph). Work
    that only the backward pass needs belongs inside the vjps."""
    parents = tuple((p, vjp) for p, vjp in pairs if isinstance(p, Node))
    return Node(out_value, parents) if parents else out_value


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a, b):
    av, bv = value_of(a), value_of(b)
    try:
        out = av + bv
    except ValueError:
        raise ShapeMismatch(f"add: shapes {av.shape} and {bv.shape} do not broadcast")
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
    return _make(out, [
        (a, lambda g: _unbroadcast(g / bv, av.shape)),
        (b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)),
    ])


# rows per block of :func:`mlp`: 512 rows of a 64-wide float64 activation
# are 256 KiB, so a block, its gradient and the temporaries of its backward
# step stay in a 2 MiB L2 through every layer. Chosen by measurement against
# 256, 1024 and 2048 rows
BLOCK = 512


def _row_blocks(n: int, k: int) -> list:
    """(start, stop) of :func:`mlp`'s row blocks, each of whole runs of ``k``
    rows. A one-row remainder joins the block before it: NumPy hands a
    one-row product to gemv, which sums in another order than gemm, so that
    row would not match the product over all rows bit for bit."""
    bounds = list(range(0, n, k * max(1, BLOCK // k))) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _softplus(z):
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _softplus_slope(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def mlp(x, layers, activation: str, activate_output: bool = False,
        u=None, k: int = 1):
    """Fully connected stack over the rows of ``x``: layer i of ``layers``,
    a ``(w, b)`` pair, computes ``h @ w + b``, and ``activation`` ("relu"
    or "softplus") follows every layer but the last, and the last too with
    ``activate_output``. One node however many operands are Nodes.

    ``u`` is an optional per-ray operand: one row per run of ``k``
    consecutive rows of ``x``, joined to the first layer's input as if each
    row of ``x`` were followed by the columns of its ray's row of ``u``. The
    first weight splits by rows, ``w = [w_x; w_u]``, so the first layer is
    ``x @ w_x + repeat(u @ w_u + b, k)``: the per-ray part runs once per ray.
    Only the order of the first layer's sum differs from the joined input.

    The hidden layers run in blocks of about :data:`BLOCK` rows of whole
    rays, each block through all of them while it stays in cache; the output
    layer is one product over all rows. Rows of a matrix product are
    independent, so the output is bit-identical to one layer at a time over
    all rows. The output layer is not blocked because OpenBLAS multiplies
    small products (under 10^6 multiply-adds) with another kernel, which
    rounds 2-4 column outputs, such as an RGB head's, differently from the
    whole product.

    The gradient walks the same blocks back through the layers and makes
    the gradients of all Node operands in one pass, on the first parent's
    visit; dx is bit-identical to one layer at a time, dw and db are summed
    block by block; with ``u``, the first layer's gradient is summed over
    each ray's rows, and ``u``, ``w_u`` and the first bias take theirs from
    those per-ray sums. The node then drops its hidden activations, so one
    backward pass can run through it. Without a Node operand, the hidden
    layers but the last live in one block-sized buffer each.
    """
    xv = value_of(x)
    ws = [value_of(w) for w, _ in layers]
    bs = [value_of(b) for _, b in layers]
    if xv.ndim != 2:
        raise ShapeMismatch(f"mlp: x must be rows of features, got shape {xv.shape}")
    n, width = xv.shape
    uv = None if u is None else value_of(u)
    if uv is not None:
        if uv.ndim != 2 or k < 1 or uv.shape[0] * k != n:
            raise ShapeMismatch(f"mlp: per-ray u of shape {uv.shape} with {k} rows "
                                f"per ray does not cover {n} rows")
        width += uv.shape[1]
    for i, (wv, bv) in enumerate(zip(ws, bs)):
        if wv.ndim != 2 or wv.shape[0] != width or bv.shape != wv.shape[1:]:
            raise ShapeMismatch(f"mlp: layer {i}: ({n}, {width}) @ {wv.shape} "
                                f"+ {bv.shape} do not conform")
        width = wv.shape[1]
    if activation not in ("relu", "softplus"):
        raise ValueError(f"unknown activation {activation!r}")
    relu = activation == "relu"
    operands = [x, *(p for pair in layers for p in pair)]
    # wins[i] is the part of layer i's weight that meets x's rows
    wins = list(ws)
    if uv is None:
        k = 1
    else:
        operands.append(u)
        wins[0], w_u = np.split(ws[0], [xv.shape[1]])
        per_ray = uv @ w_u
        per_ray += bs[0]
    graph = any(isinstance(p, Node) for p in operands)
    last = len(layers) - 1
    blocks = _row_blocks(n, k)
    acted = [True] * last + [activate_output]

    # post[i] is layer i's output, pre[i] its pre-activation where the
    # softplus gradient needs it, else the same array. What the gradient
    # reads is kept over all rows; without a graph a hidden layer's rows live
    # only while their block goes through the stack, except the last hidden
    # layer's, which feed the output product
    span = max((hi - lo for lo, hi in blocks), default=0)
    post = [np.empty((n if graph or i == last - 1 else span, ws[i].shape[1]))
            for i in range(last)]
    post.append(np.empty((n, ws[last].shape[1])))
    pre = [np.empty_like(h) if graph and acted[i] and not relu else h
           for i, h in enumerate(post)]

    def dense(i, h, lo, hi):
        rows = slice(lo, hi) if len(post[i]) == n else slice(hi - lo)
        z, out = pre[i][rows], post[i][rows]
        np.matmul(h, wins[i], out=z)
        if i == 0 and uv is not None:
            by_ray = z.reshape(-1, k, z.shape[1])     # a view of z
            by_ray += per_ray[lo // k:hi // k, None]
        else:
            z += bs[i]
        if acted[i]:
            if relu:
                np.maximum(z, 0.0, out=out)
            else:
                out[...] = _softplus(z)
        return out

    for lo, hi in blocks:
        h = xv[lo:hi]
        for i in range(last):
            h = dense(i, h, lo, hi)
    dense(last, xv if last == 0 else post[last - 1], 0, n)

    def gradients(g):
        """Gradient of every Node operand, in ``operands`` order."""
        want = [isinstance(p, Node) for p in operands]
        # operands are x, w0, b0, w1, b1, ... and u: the gradient goes down
        # to the lowest layer with a Node operand
        lowest = (0 if uv is not None and want[-1]
                  else max(want.index(True) - 1, 0) // 2)
        dx = np.empty(xv.shape) if want[0] else None
        dws = [np.zeros_like(w) if t else None for w, t in zip(ws, want[1::2])]
        dbs = [np.zeros_like(b) if t else None for b, t in zip(bs, want[2::2])]
        # the rows of each dw that x's rows reach, as views
        dwins = [d if d is None else d[:len(w)] for d, w in zip(dws, wins)]
        # the first layer's gradient summed over each ray's rows
        d_ray = (np.empty((len(uv), ws[0].shape[1]))
                 if uv is not None and lowest == 0 else None)
        for lo, hi in blocks:
            gz = g[lo:hi]
            for i in range(last, lowest - 1, -1):
                if acted[i]:
                    gz = gz * (post[i][lo:hi] > 0 if relu
                               else _softplus_slope(pre[i][lo:hi]))
                if dwins[i] is not None:
                    dwins[i] += (xv[lo:hi] if i == 0 else post[i - 1][lo:hi]).T @ gz
                if i == 0 and d_ray is not None:
                    d_ray[lo // k:hi // k] = gz.reshape(-1, k, gz.shape[1]).sum(axis=1)
                elif dbs[i] is not None:
                    dbs[i] += gz.sum(axis=0)
                if i > lowest:
                    gz = gz @ wins[i].T
                elif dx is not None:
                    np.matmul(gz, wins[0].T, out=dx[lo:hi])
        grads = [dx, *(d for pair in zip(dws, dbs) for d in pair)]
        if d_ray is not None:
            if dws[0] is not None:
                dws[0][len(wins[0]):] = uv.T @ d_ray
            if dbs[0] is not None:
                dbs[0] += d_ray.sum(axis=0)
            grads.append(d_ray @ w_u.T if want[-1] else None)
        # the node's one visit is over: its activations go with it
        post.clear()
        pre.clear()
        return grads

    # the gradients are made once per backward visit and handed out one
    # parent at a time; once the last parent has its own, nothing is kept
    served = {}

    def vjp(j):
        def pull(g):
            if not served:
                served.update((i, d) for i, d in enumerate(gradients(g))
                              if d is not None)
            return served.pop(j)
        return pull

    return _make(post[last], [(p, vjp(j)) for j, p in enumerate(operands)])


# ---------------------------------------------------------------------------
# elementwise unary ops


def exp(a):
    ov = np.exp(value_of(a))
    return _make(ov, [(a, lambda g: g * ov)])


def log(a):
    av = value_of(a)
    ov = np.log(av)
    return _make(ov, [(a, lambda g: g / av)])


def sigmoid(a):
    av = value_of(a)
    # numerically stable in both tails
    ov = np.where(av >= 0, 1.0 / (1.0 + np.exp(-np.abs(av))),
                  np.exp(-np.abs(av)) / (1.0 + np.exp(-np.abs(av))))
    return _make(ov, [(a, lambda g: g * ov * (1.0 - ov))])


def softplus(a):
    av = value_of(a)
    return _make(_softplus(av), [(a, lambda g: g * _softplus_slope(av))])


# ---------------------------------------------------------------------------
# reductions


def sum_(a, axis=None, keepdims=False):
    av = value_of(a)
    ov = av.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, av.shape).copy()

    return _make(ov, [(a, vjp)])


def mean(a, axis=None, keepdims=False):
    av = value_of(a)
    n = av.size if axis is None else av.shape[axis]
    return div(sum_(a, axis=axis, keepdims=keepdims), float(n))


# ---------------------------------------------------------------------------
# 3-vector helpers


def cross3(a, b):
    av, bv = value_of(a), value_of(b)
    if av.shape[-1] != 3 or bv.shape[-1] != 3:
        raise ShapeMismatch(f"cross3: last axis must be 3, got {av.shape} x {bv.shape}")
    out = np.cross(av, bv)
    return _make(out, [
        (a, lambda g: _unbroadcast(np.cross(bv, g), av.shape)),
        (b, lambda g: _unbroadcast(np.cross(g, av), bv.shape)),
    ])


def normalize3(a):
    """Unit vector along the last axis. Gradient projects out the radial part."""
    av = value_of(a)
    r = np.linalg.norm(av, axis=-1, keepdims=True)
    ov = av / r

    def vjp(g):
        dot = np.sum(g * ov, axis=-1, keepdims=True)
        return (g - ov * dot) / r

    return _make(ov, [(a, vjp)])


# ---------------------------------------------------------------------------
# structural ops


def concat(parts, axis=-1):
    vals = [value_of(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
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
    return _make(ov, [(a, lambda g: g.reshape(av.shape))])


def narrow(a, start, length, axis=0):
    """Contiguous slice along ``axis``; gradient zero-pads back."""
    av = value_of(a)
    sl = tuple(slice(None) if i != axis else slice(start, start + length)
               for i in range(av.ndim))
    ov = av[sl]

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

    def vjp(g):
        full = np.zeros_like(av)
        if axis == 0:
            np.add.at(full, idx, g)
        else:
            full_m = np.moveaxis(full, axis, 0)
            np.add.at(full_m, idx, np.moveaxis(g, axis, 0))
        return full

    return _make(ov, [(a, vjp)])


def exclusive_cumprod(a, axis=-1):
    """y_n = prod_{k<n} x_k with y_0 = 1, along ``axis``.

    The gradient runs the reverse recurrence s_k = g_{k+1} + x_{k+1} s_{k+1}
    and returns y_k s_k. It never divides by x, so factors that underflow to
    zero (saturated compositing) keep finite gradients.
    """
    av = value_of(a)
    shifted = np.roll(av, 1, axis=axis)
    idx0 = tuple(slice(None) if i != (axis % av.ndim) else slice(0, 1)
                 for i in range(av.ndim))
    shifted[idx0] = 1.0
    ov = np.cumprod(shifted, axis=axis)

    def vjp(g):
        gm, xm = np.moveaxis(g, axis, -1), np.moveaxis(av, axis, -1)
        s = np.zeros_like(gm)
        for k in range(gm.shape[-1] - 2, -1, -1):
            s[..., k] = gm[..., k + 1] + xm[..., k + 1] * s[..., k + 1]
        return ov * np.moveaxis(s, -1, axis)

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


def _coef(u, closed, series, dclosed, dseries):
    uv = value_of(u)
    small = uv < _U_SWITCH
    us = np.where(small, 0.0, uv)  # avoid div-by-zero in the closed branch
    ov = np.where(small, series(uv), closed(us))
    return _make(ov, [(u, lambda g: g * np.where(small, dseries(uv), dclosed(us)))])


def rot_coef_a(u):
    """sin(theta)/theta as a function of u = theta**2."""
    return _coef(u, _a_closed, _a_series, _da_closed, _da_series)


def rot_coef_b(u):
    """(1 - cos(theta)) / theta**2 as a function of u = theta**2."""
    return _coef(u, _b_closed, _b_series, _db_closed, _db_series)


def rot_coef_c(u):
    """(theta - sin(theta)) / theta**3 as a function of u = theta**2."""
    return _coef(u, _c_closed, _c_series, _dc_closed, _dc_series)


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

    An interior node's gradient is dropped once its vjps have run; leaves,
    parameter leaves (``ParamStore.leaf``) among them, keep theirs.
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
        if node.parents:
            node.grad = None


def keep_freed_memory() -> None:
    """Keep a freed graph's memory for the next graph (glibc; else a no-op).

    Under glibc's self-adjusting thresholds the heap top goes back to the OS
    unless a surviving array happens to lie above the freed graph, and the
    next training step faults it all in again: ~65k page faults, ~40 % of a
    BRI step, switched on or off by small changes in allocation order; a
    64x64 frame took ~27k. Fixed thresholds keep arrays up to 32 MiB on the
    heap and the heap at its peak.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)    # M_TRIM_THRESHOLD
