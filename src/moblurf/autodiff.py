"""Reverse-mode automatic differentiation over dense float64 arrays.

Every op below is polymorphic, and one rule, in :func:`_make`, decides
what it returns: a :class:`Node` that remembers how to push gradients back
to its parents when at least one operand is a Node, the plain ndarray
otherwise. Training and inference therefore run the exact same forward
arithmetic. Frozen parameters are plain arrays (``ParamStore.leaf``), so
what depends on nothing but them and on data builds no graph; inference
freezes every group and builds none at all.

Ops are as coarse as the hot path needs: :func:`mlp` is a whole fully
connected stack (matmuls, biases and activations), with the heads that read
its last layer, in one node, evaluated in cache-sized row blocks, so a
field costs one node and one backward visit.

A vector-Jacobian product may return a view of the incoming gradient
(``add``, ``reshape``, ``concat``), so :func:`backward` writes into a
gradient array only when it owns it: when it allocated the array to sum two
contributions, or when an ``mlp`` or ``narrow`` vjp returned it (those are
always fresh). Every later contribution is added into an owned array in
place, an ``mlp``'s input gradient block by block and a ``narrow``'s into
its slice; any other array is never mutated, and the first sum into it
allocates.
"""

from __future__ import annotations

import ctypes
import math

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


class _Stack:
    """One fully connected stack of :func:`mlp`, the trunk or a head: its
    weights and biases, its optional per-ray operand, and, once
    :meth:`allocate` has run, the arrays its layers write. ``operands`` are
    its w0, b0, w1, b1, ... and then its u, if it has one; ``width`` is
    its input's width (``self.width`` its output's) and ``n`` the rows';
    ``acted_out`` says whether the activation follows the output layer
    too."""

    def __init__(self, name: str, layers, u, k: int, width: int, n: int,
                 relu: bool, acted_out: bool):
        self.n, self.relu = n, relu
        self.acted = [True] * (len(layers) - 1) + [acted_out]
        self.ws = [value_of(w) for w, _ in layers]
        self.bs = [value_of(b) for _, b in layers]
        self.operands = [p for pair in layers for p in pair]
        self.uv = None if u is None else value_of(u)
        self.k = 1
        fan_in = width
        if self.uv is not None:
            if self.uv.ndim != 2 or k < 1 or self.uv.shape[0] * k != n:
                raise ShapeMismatch(f"{name}: per-ray u of shape {self.uv.shape} with "
                                    f"{k} rows per ray does not cover {n} rows")
            self.operands.append(u)
            self.k = k
            width += self.uv.shape[1]
        for i, (wv, bv) in enumerate(zip(self.ws, self.bs)):
            if wv.ndim != 2 or wv.shape[0] != width or bv.shape != wv.shape[1:]:
                raise ShapeMismatch(f"{name}: layer {i}: ({n}, {width}) @ {wv.shape} "
                                    f"+ {bv.shape} do not conform")
            width = wv.shape[1]
        self.width = width
        # wins[i] is the part of layer i's weight that meets the input rows
        self.wins = list(self.ws)
        if self.uv is not None:
            self.wins[0], self.w_u = np.split(self.ws[0], [fan_in])
            self.per_ray = self.uv @ self.w_u
            self.per_ray += self.bs[0]

    def allocate(self, graph: bool, span: int, out_rows: int) -> None:
        """Allocate the layers' outputs: over all rows with a graph, whose
        gradient reads them, else over one block of ``span`` rows; the
        output layer over ``out_rows``."""
        self.span, last = span, len(self.ws) - 1
        # post[i] is layer i's output, pre[i] its pre-activation where the
        # softplus gradient needs it, else the same array
        self.post = [np.empty((out_rows if i == last else self.n if graph else span,
                               w.shape[1])) for i, w in enumerate(self.ws)]
        self.pre = [np.empty_like(h) if graph and self.acted[i] and not self.relu
                    else h for i, h in enumerate(self.post)]
        # each bias as a block of rows: a contiguous add instead of a
        # broadcast one, with the same bits; the per-ray first layer adds its
        # own
        self.tiles = [None if i == 0 and self.uv is not None else np.tile(b, (span, 1))
                      for i, b in enumerate(self.bs)]

    def forward(self, h, lo: int, hi: int):
        """Rows ``lo:hi`` through every layer; ``h`` is their input."""
        for i, wv in enumerate(self.wins):
            rows = slice(lo, hi) if len(self.post[i]) == self.n else slice(hi - lo)
            z, out = self.pre[i][rows], self.post[i][rows]
            np.matmul(h, wv, out=z)
            if self.tiles[i] is None:
                by_ray = z.reshape(-1, self.k, z.shape[1])     # a view of z
                by_ray += self.per_ray[lo // self.k:hi // self.k, None]
            else:
                z += self.tiles[i][:hi - lo]
            if self.acted[i]:
                if self.relu:
                    np.maximum(z, 0.0, out=out)
                else:
                    out[...] = _softplus(z)
            h = out
        return h

    def begin_gradients(self, want_in: bool, want: list) -> bool:
        """Zeroed sums for the gradients of the operands that ``want`` marks;
        ``want_in`` marks the input. False when none is wanted."""
        if not (want_in or any(want)):
            self.lowest = None
            return False
        # the gradient goes down to the lowest layer with a wanted operand
        self.lowest = (0 if want_in or self.uv is not None and want[-1]
                       else want.index(True) // 2)
        self.dws = [np.zeros_like(w) if t else None for w, t in zip(self.ws, want[::2])]
        self.dbs = [np.zeros_like(b) if t else None for b, t in zip(self.bs, want[1::2])]
        # the rows of each dw that the input rows reach, as views
        self.dwins = [d if d is None else d[:len(w)] for d, w in zip(self.dws, self.wins)]
        # the first layer's gradient summed over each ray's rows
        self.d_ray = (np.empty((len(self.uv), self.ws[0].shape[1]))
                      if self.uv is not None and self.lowest == 0 else None)
        # a block's bias gradient is a product with ones: one BLAS call, where
        # a NumPy sum over the rows loops over them one at a time
        self.ones = np.ones(self.span)
        # each weight transposed for g @ w.T; a one-column weight as its row
        # tiled to a block: each entry of the product is one product then,
        # and a multiply by the tile gives its bits without a BLAS call of
        # inner dimension 1 or a broadcast multiply's short inner loops
        self.wts = [np.tile(w.T, (self.span, 1)) if w.shape[1] == 1 else w.T
                    for w in self.wins]
        return True

    def _times_t(self, i: int, g, out=None):
        """``g @ wins[i].T`` (see :meth:`begin_gradients`)."""
        if self.wins[i].shape[1] == 1:
            return np.multiply(self.wts[i][:len(g)], g, out=out)
        return np.matmul(g, self.wts[i], out=out)

    def backward(self, gz, owned: bool, lo: int, hi: int, h_in, d_in=None,
                 scratch=None) -> None:
        """Walk ``gz``, the gradient of rows ``lo:hi`` of the output, back
        through the layers, whose input rows are ``h_in``, and add to the
        sums; ``owned`` says ``gz`` may be written. With ``d_in``, the rows'
        input gradient is written into it, or, with ``scratch``, made there
        and then added in."""
        relu, k = self.relu, self.k
        for i in range(len(self.ws) - 1, self.lowest - 1, -1):
            if self.acted[i]:
                slope = (self.post[i][lo:hi] > 0 if relu
                         else _softplus_slope(self.pre[i][lo:hi]))
                if owned:
                    gz *= slope
                else:
                    gz, owned = gz * slope, True
            if self.dwins[i] is not None:
                self.dwins[i] += (h_in if i == 0 else self.post[i - 1][lo:hi]).T @ gz
            if i == 0 and self.d_ray is not None:
                self.d_ray[lo // k:hi // k] = gz.reshape(-1, k, gz.shape[1]).sum(axis=1)
            elif self.dbs[i] is not None:
                self.dbs[i] += self.ones[:len(gz)] @ gz
            if i > self.lowest:
                gz, owned = self._times_t(i, gz), True
            elif scratch is not None:
                d_in += self._times_t(0, gz, scratch)
            elif d_in is not None:
                self._times_t(0, gz, d_in)

    def gradients(self, want: list) -> list:
        """The gradients of the operands, in order, None where not wanted;
        the layers' outputs are dropped."""
        self.post = self.pre = None
        if self.lowest is None:
            return [None] * len(self.operands)
        if self.d_ray is not None:
            if self.dws[0] is not None:
                self.dws[0][len(self.wins[0]):] = self.uv.T @ self.d_ray
            if self.dbs[0] is not None:
                self.dbs[0] += self.d_ray.sum(axis=0)
        grads = [d for pair in zip(self.dws, self.dbs) for d in pair]
        if self.uv is not None:
            grads.append(self.d_ray @ self.w_u.T if want[-1] else None)
        return grads


def mlp(x, layers, activation: str, activate_output: bool = False,
        u=None, k: int = 1, heads=()):
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

    ``heads`` are further stacks, each a ``(layers, u, k)`` triple as above,
    that read the stack's last layer as their input, with ``activation``
    between their layers and none after the last. With heads the node's
    value is their outputs side by side, in order; the stack's own last
    layer is hidden.

    The layers run in blocks of about :data:`BLOCK` rows of whole rays of
    every ``k``, each block through all of them, the heads and the output
    layers too, while it stays in cache; each bias is added from a block of
    copies of it. Every product is one block's and one stack's, so a row's
    bits do not depend on how many rows share the call, or on the stacks
    beside it. They may differ in the last place from one product over all
    rows: OpenBLAS multiplies small products (under about 10^6
    multiply-adds) with another kernel, which rounds some widths, such as
    an RGB head's 3 columns, differently.

    The gradient walks the same blocks back, through each head and then
    through the stack, and makes the gradients of all Node operands in one
    pass, on the first parent's visit. The heads' gradients of the stack's
    output are summed in a block-sized buffer in their order, each product
    made in a scratch block and added, as separate nodes' vjps would be
    summed; the input gradient is bit-identical to one layer at a time,
    dw and db are summed block by block, each block's db a product with a
    ones vector; with ``u``, the first layer's
    gradient is summed over each ray's rows, and ``u``, ``w_u`` and the
    first bias take theirs from those per-ray sums. The node then drops its
    hidden activations, so one backward pass can run through it. Without a
    Node operand every hidden layer lives in one block-sized buffer; only
    the value spans all rows.
    """
    xv = value_of(x)
    if xv.ndim != 2:
        raise ShapeMismatch(f"mlp: x must be rows of features, got shape {xv.shape}")
    if activation not in ("relu", "softplus"):
        raise ValueError(f"unknown activation {activation!r}")
    n, relu = len(xv), activation == "relu"
    trunk = _Stack("mlp", layers, u, k, xv.shape[1], n, relu, activate_output)
    heads = [_Stack(f"mlp: head {j}", *head, trunk.width, n, relu, False)
             for j, head in enumerate(heads)]
    stacks = [trunk, *heads]
    operands = [x, *(p for s in stacks for p in s.operands)]
    graph = any(isinstance(p, Node) for p in operands)
    blocks = _row_blocks(n, math.lcm(*(s.k for s in stacks)))
    span = max((hi - lo for lo, hi in blocks), default=0)
    # a head's output layer is copied into the value block by block
    trunk.allocate(graph, span, n if graph or not heads else span)
    for head in heads:
        head.allocate(graph, span, span)
    # the heads' columns of the value
    ends = np.cumsum([0] + [h.width for h in heads])
    cols = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    value = np.empty((n, ends[-1])) if heads else trunk.post[-1]

    for lo, hi in blocks:
        h = trunk.forward(xv[lo:hi], lo, hi)
        for head, c in zip(heads, cols):
            value[lo:hi, c] = head.forward(h, lo, hi)
    # what only the forward reads is not kept for the gradient
    for s in stacks:
        s.tiles = s.per_ray = None

    def gradients(g, into):
        """Gradient of every Node operand, in ``operands`` order; x's is
        added into ``into`` when that is given."""
        want = [isinstance(p, Node) for p in operands]
        at = np.cumsum([1] + [len(s.operands) for s in stacks])
        wants = [want[a:b] for a, b in zip(at[:-1], at[1:])]
        deep = trunk.begin_gradients(want[0], wants[0])
        heads_on = [h.begin_gradients(deep, w) for h, w in zip(heads, wants[1:])]
        dx = (np.empty(xv.shape) if into is None else into) if want[0] else None
        # with ``into``, each block's product is made here, then added in
        scratch = None if into is None else np.empty((span, xv.shape[1]))
        # a block of the stack's output gradient, the scratch its sums use,
        # and each head's output gradient, copied out of g's columns
        g_out = np.empty((span, trunk.width)) if heads and deep else None
        g_sum = np.empty_like(g_out) if len(heads) > 1 and deep else None
        g_heads = [np.empty((span, h.width)) for h in heads]
        for lo, hi in blocks:
            m = hi - lo
            if heads:
                d_in = None if g_out is None else g_out[:m]
                for j, (head, c) in enumerate(zip(heads, cols)):
                    if heads_on[j]:
                        gz = g_heads[j][:m]
                        gz[...] = g[lo:hi, c]
                        head.backward(gz, True, lo, hi, trunk.post[-1][lo:hi], d_in,
                                      g_sum[:m] if j and d_in is not None else None)
                gz, owned = d_in, True
            else:
                gz, owned = g[lo:hi], False
            if deep:
                trunk.backward(gz, owned, lo, hi, xv[lo:hi],
                               None if dx is None else dx[lo:hi],
                               None if scratch is None else scratch[:m])
        # the node's one visit is over: its activations go with it
        return [dx, *(d for s, w in zip(stacks, wants) for d in s.gradients(w))]

    # the gradients are made once per backward visit and handed out one
    # parent at a time; once the last parent has its own, nothing is kept
    served = {}

    def vjp(j):
        def pull(g, into=None):
            """Operand j's gradient, a fresh array; with ``into``, an array
            that backward owns holding j's gradient so far, added into it."""
            if not served:
                served.update((i, d) for i, d in enumerate(
                    gradients(g, into if j == 0 else None)) if d is not None)
            d = served.pop(j)
            if into is None:
                return d
            if d is not into:
                into += d
            return into
        pull.fresh = True   # see backward
        return pull

    return _make(value, [(p, vjp(j)) for j, p in enumerate(operands)])


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
    e = np.exp(-np.abs(av))
    ov = np.where(av >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
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

    def vjp(g, into=None):
        """A fresh zero-padded gradient; with ``into``, an array that
        backward owns, ``g`` added into its slice."""
        if into is None:
            into = np.zeros_like(av)
            into[sl] = g
        else:
            into[sl] += g
        return into

    vjp.fresh = True    # see backward
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

    A node owns its gradient array for this pass when backward allocated it,
    summing two contributions, or an ``mlp`` or ``narrow`` vjp returned it.
    Later contributions are added into an owned array in place (an ``mlp``
    vjp adds its input gradient into it block by block, a ``narrow`` vjp
    into its slice alone, where a sum would add zeros); an array that is
    not owned may be a view of another node's gradient and is never written
    to. Sums run in the same order either way, so the bits do not depend on
    it, but for the sign of a zero.
    """
    if not isinstance(root, Node):
        raise TypeError("backward expects a Node")
    if root.value.size != 1:
        raise NonScalarRoot(f"backward root must be scalar, got shape {root.value.shape}")
    order = topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    # the nodes whose gradient array is this pass's own; they stay alive in
    # ``order`` until it ends
    owned = set()
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in node.parents:
            fresh = getattr(vjp, "fresh", False)
            if parent.grad is None:
                parent.grad = vjp(node.grad)
                if fresh:
                    owned.add(parent)
            elif parent in owned:
                if fresh:
                    vjp(node.grad, into=parent.grad)
                else:
                    parent.grad += vjp(node.grad)
            else:
                parent.grad = parent.grad + vjp(node.grad)
                owned.add(parent)
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
