"""Reverse-mode automatic differentiation over dense float64 arrays.

Every value an op returns is float64, and :func:`value_of` coerces every
operand to it but a float32 array, which it returns as it is. Two kinds
exist: the copies of a field's weights that ``ParamStore.leaf`` hands out,
plain or as leaf :class:`Node` values, in training and inference alike, and
a graph-free render's encoded samples, which ``fields.encode_position``
writes in float32 once for both fields. Only :func:`mlp` reads them: it
runs its products, forward and backward, in the dtype of its weights, and
still returns a float64 value and float64 gradients.

Every op below is polymorphic, and one rule, in :func:`_make`, decides
what it returns: a :class:`Node` that remembers how to push gradients back
to its parents when at least one operand is a Node, the plain ndarray
otherwise. Training and inference therefore run the exact same forward
arithmetic. Frozen parameters are plain arrays (``ParamStore.leaf``), so
what depends on nothing but them and on data builds no graph; inference
freezes every group and builds none at all.

Ops are as coarse as the hot path needs: :func:`mlp` is a whole fully
connected relu stack (matmuls, biases and relus), with the heads that read
its last layer, in one node, evaluated layer by layer over cache-sized
spans of rows, so a field costs one node and one backward visit.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np


class ShapeMismatch(ValueError):
    """Raised when operand shapes do not conform for an op."""


class NonScalarRoot(ValueError):
    """Raised when backward() is called on a non-scalar node."""


class Node:
    """One vertex of the computation graph.

    ``parents`` is a tuple of ``(parent_node, vjp)`` pairs where ``vjp``
    maps the gradient at this node to the gradient contribution at the
    parent (already reduced to the parent's shape).
    """

    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        # a float32 array stays float32: a field weight's leaf, which only
        # :func:`mlp` reads (see ParamStore.leaf)
        self.value = value_of(value)
        self.grad = None
        self.parents = parents

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={not self.parents})"


def value_of(x) -> np.ndarray:
    """Underlying ndarray of a Node, or the input coerced to float64; a
    float32 array, plain or a Node's, is returned as it is, the same object."""
    v = x.value if isinstance(x, Node) else x
    return v if getattr(v, "dtype", None) == np.float32 else np.asarray(v, dtype=np.float64)


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


def _broadcast(name: str, op, a, b):
    """Both operands' arrays and ``op`` of them, or ShapeMismatch."""
    av, bv = value_of(a), value_of(b)
    try:
        return av, bv, op(av, bv)
    except ValueError:
        raise ShapeMismatch(f"{name}: shapes {av.shape} and {bv.shape} do not broadcast")


def add(a, b):
    av, bv, out = _broadcast("add", np.add, a, b)
    return _make(out, [
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    ])


def sub(a, b):
    av, bv, out = _broadcast("sub", np.subtract, a, b)
    return _make(out, [
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(-g, bv.shape)),
    ])


def mul(a, b):
    av, bv, out = _broadcast("mul", np.multiply, a, b)
    return _make(out, [
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    ])


def div(a, b):
    av, bv, out = _broadcast("div", np.divide, a, b)
    return _make(out, [
        (a, lambda g: _unbroadcast(g / bv, av.shape)),
        (b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)),
    ])


# multiply-adds of a product at or below which OpenBLAS takes its
# small-matrix gemm kernel, which runs :func:`mlp`'s 64-wide products
# fastest (timings in CHANGES.md, "sized for OpenBLAS's small-matrix sgemm")
SMALL_PRODUCT = 10 ** 6
# rows per product of :func:`mlp`'s forward, whatever the weights' dtype:
# 7 rays of 32 samples, or 28 of 8, so that a block of a 64-wide layer stays
# under SMALL_PRODUCT. The fields' bits do not depend on it
FORWARD_BLOCK = 224
# rows per span of :func:`mlp`'s forward, whole forward blocks: each layer
# runs over a span, in L2, before the next (timings in CHANGES.md, "layer by
# layer over spans of whole forward blocks"). The bits do not depend on it
FORWARD_SPAN = 896
# rows per block of :func:`mlp`'s gradient, which walks the activations the
# graph keeps over all rows; each block adds one product to every dw and db
# (timings of other sizes in CHANGES.md, "gradient products sized for
# OpenBLAS")
BLOCK = 1024


def _row_blocks(n: int, k: int, block: int) -> list:
    """(start, stop) of :func:`mlp`'s row blocks of about ``block`` rows,
    each of whole runs of ``k`` rows. A one-row remainder joins the block
    before it: NumPy hands a one-row product to gemv, which sums in another
    order than gemm, so that row would not match the product over all rows
    bit for bit."""
    bounds = list(range(0, n, k * max(1, block // k))) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


class _Stack:
    """One fully connected stack of :func:`mlp`, the trunk or a head: its
    weights and biases, its optional per-ray operand, and ``post``, set by
    :func:`mlp`: for each layer the array over all rows that keeps its
    output for the gradient, or None where a new span is written instead.
    ``operands`` are its w0, b0, w1, b1, ... and then its u, if it has one;
    ``width`` is its input's width (``self.width`` its output's) and ``n``
    the rows'; ``acted_out`` says whether the relu follows the output layer
    too."""

    def __init__(self, name: str, layers, u, k: int, width: int, n: int,
                 acted_out: bool):
        self.acted = [True] * (len(layers) - 1) + [acted_out]
        self.ws = [value_of(w) for w, _ in layers]
        self.bs = [value_of(b) for _, b in layers]
        self.dtype = self.ws[0].dtype
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
            self.per_ray = self.uv.astype(self.dtype, copy=False) @ self.w_u
            self.per_ray += self.bs[0]

    def begin_forward(self, span: int, zeros: dict) -> None:
        """What only the forward reads, over ``span`` rows. ``zeros`` holds
        one span of zeros per width, shared by every stack of the call."""
        # each bias as a span of rows: a contiguous add instead of a
        # broadcast one, with the same bits; the per-ray first layer adds its
        # own
        self.tiles = [None if i == 0 and self.uv is not None else np.tile(b, (span, 1))
                      for i, b in enumerate(self.bs)]
        # the relu's other operand as a span of zeros: a contiguous maximum
        # takes half the time of one against the scalar, with the same bits
        for w, acted in zip(self.ws, self.acted):
            if acted and w.shape[1] not in zeros:
                zeros[w.shape[1]] = np.zeros((span, w.shape[1]), self.dtype)
        self.zeros = [zeros[w.shape[1]] if acted else None
                      for w, acted in zip(self.ws, self.acted)]

    def forward(self, h, blocks):
        """The rows of ``blocks``, one span, through every layer, each layer
        over all of them before the next; ``h`` is their input. A layer
        writes its rows of ``post``, or a new span-sized array. Its product
        is one per block, or one over the span when that stays under
        SMALL_PRODUCT (a narrow head's), whose rows have the bits of their
        blocks' products."""
        lo, hi = blocks[0][0], blocks[-1][1]
        for i, wv in enumerate(self.wins):
            z = (np.empty((hi - lo, wv.shape[1]), self.dtype) if self.post[i] is None
                 else self.post[i][lo:hi])
            if (hi - lo) * wv.size <= SMALL_PRODUCT:
                np.matmul(h, wv, out=z)
            else:
                for a, b in blocks:
                    np.matmul(h[a - lo:b - lo], wv, out=z[a - lo:b - lo])
            if self.tiles[i] is None:
                by_ray = z.reshape(-1, self.k, z.shape[1])     # a view of z
                by_ray += self.per_ray[lo // self.k:hi // self.k, None]
            else:
                z += self.tiles[i][:hi - lo]
            if self.acted[i]:
                np.maximum(z, self.zeros[i][:hi - lo], out=z)
            h = z
        return h

    def begin_gradients(self, want_in: bool, span: int, n: int) -> None:
        """Zeroed sums for the gradients of every weight and bias, and what
        gradient blocks of ``span`` rows, of ``n`` in all, read; ``want_in``
        says whether the input's gradient is made."""
        self.want_in = want_in
        # float64 sums of float32 block products: the rounding does not grow
        # with the number of blocks, and Adam reads them as they are
        self.dws = [np.zeros(w.shape) for w in self.ws]
        self.dbs = [np.zeros(b.shape) for b in self.bs]
        # the rows of each dw that the input rows reach, as views
        self.dwins = [d[:len(w)] for d, w in zip(self.dws, self.wins)]
        # the first layer's gradient summed over each ray's rows
        self.d_ray = None if self.uv is None else np.empty((len(self.uv), self.ws[0].shape[1]))
        # a block's bias gradient is a product with ones: one BLAS call, where
        # a NumPy sum over the rows loops over them one at a time
        self.ones = np.ones(span, self.dtype)
        # each weight transposed for g @ w.T, and its rows per product. A
        # square weight whose forward block fits SMALL_PRODUCT (64 x 64) is
        # copied to contiguous rows and multiplied in runs under
        # SMALL_PRODUCT: faster than the view, and each run of 2 rows or more
        # gives every row the bits of the view's product over all rows, which
        # a node that fits one run makes. The view stays elsewhere, where the
        # small kernel would change the bits (CHANGES.md, "gradient products
        # sized for OpenBLAS"). A one-column weight's is a row, which
        # multiplies g broadcast: each entry of the product is one product
        # then, with its bits, and no BLAS call of inner dimension 1
        self.wts, self.runs = [], []
        for w in self.wins:
            run = SMALL_PRODUCT // w.size
            copied = w.shape[0] == w.shape[1] and FORWARD_BLOCK <= run < n
            self.wts.append(np.ascontiguousarray(w.T) if copied else w.T)
            self.runs.append(run if copied else n)

    def backward(self, gz, lo: int, hi: int, h_in):
        """Walk ``gz``, the gradient of rows ``lo:hi`` of the output, back
        through every layer, whose input rows are ``h_in``, and add to the
        sums. ``gz`` is written only where a relu follows its layer, and the
        output layer's has one only in a stack with heads, whose gradient
        the caller makes. The rows' input gradient is returned when
        ``want_in`` asks for it, else None."""
        k = self.k
        for i in range(len(self.ws) - 1, -1, -1):
            if self.acted[i]:
                gz *= self.post[i][lo:hi] > 0
            h = h_in.astype(self.dtype, copy=False) if i == 0 else self.post[i - 1][lo:hi]
            self.dwins[i] += h.T @ gz
            if i == 0 and self.d_ray is not None:
                self.d_ray[lo // k:hi // k] = gz.reshape(-1, k, gz.shape[1]).sum(axis=1)
            else:
                self.dbs[i] += self.ones[:len(gz)] @ gz
            if i > 0 or self.want_in:
                # gz @ wins[i].T (see begin_gradients)
                wt = self.wts[i]
                if wt.shape[0] == 1:
                    gz = wt * gz
                else:
                    d = np.empty((len(gz), wt.shape[1]), self.dtype)
                    for a, b in _row_blocks(len(gz), 1, self.runs[i]):
                        np.matmul(gz[a:b], wt, out=d[a:b])
                    gz = d
        return gz if self.want_in else None

    def gradients(self) -> list:
        """The gradients of the operands, in order, u's None when u is not a
        Node; the layers' outputs are dropped."""
        self.post = None
        grads = [d for pair in zip(self.dws, self.dbs) for d in pair]
        if self.d_ray is not None:
            self.dws[0][len(self.wins[0]):] = self.uv.T @ self.d_ray
            self.dbs[0] += self.d_ray.sum(axis=0)
            u = self.operands[-1]
            grads.append(self.d_ray @ self.w_u.T if isinstance(u, Node) else None)
        return grads


def mlp(x, layers, *, u=None, k: int = 1, heads=()):
    """Fully connected stack over the rows of ``x``: layer i of ``layers``,
    a ``(w, b)`` pair, computes ``h @ w + b``, and a relu follows every
    layer but the last, and the last too when ``heads`` read it. One node
    however many operands are Nodes. The arguments after ``layers`` are
    keyword-only.

    ``u`` is an optional per-ray operand: one row per run of ``k``
    consecutive rows of ``x``, joined to the first layer's input as if each
    row of ``x`` were followed by the columns of its ray's row of ``u``. The
    first weight splits by rows, ``w = [w_x; w_u]``, so the first layer is
    ``x @ w_x + repeat(u @ w_u + b, k)``: the per-ray part runs once per ray.
    Only the order of the first layer's sum differs from the joined input.

    ``heads`` are further stacks, each a ``(layers, u, k)`` triple as above,
    that read the stack's last layer as their input, with a relu between
    their layers and none after the last. With heads the node's value is
    their outputs side by side, in order; the stack's own last layer, its
    relu applied, is hidden.

    Every operand is read through :func:`value_of`, so a float32 one stays
    float32. The products run in the dtype of the weights: float32 weights
    (plain arrays or leaf Nodes) give float32 layer outputs and bias tiles,
    and each block's input, and ``u`` once, is cast to float32, unless a
    plain ``x`` is float32 already: it is read as it is, with the same bits
    as its float64 source cast block by block. The value is float64 either
    way. The backward does the same: each block of the output gradient is
    cast to float32, and so are the input-gradient blocks the stacks return
    and the bias ones-vector. x's and u's gradients are float64, and so
    are the weights' and biases', summed block by block in float64 from
    float32 block products. All weights of all stacks must share one dtype,
    or the call raises TypeError.

    The forward cuts the rows into blocks of about :data:`FORWARD_BLOCK`
    rows, whatever the weights' dtype, of whole rays of every ``k``, and
    groups them into spans of about :data:`FORWARD_SPAN` rows, whole blocks.
    Each span runs through the stack and then each head layer by layer, the
    output layers too, while it stays in cache: a layer's product is one per
    block, or one over the span when that stays under OpenBLAS's
    small-matrix bound :data:`SMALL_PRODUCT` (a narrow head's), and then one
    bias add, from a span of copies of the bias, one per-ray add and one
    relu, a maximum with a span of zeros, run over the whole span; each
    head's columns are copied into the value once per span. A product under
    the bound gives each row the bits it has in its block's product, so a
    row's bits do not depend on the span, nor on the stacks beside it. With
    the fields' float32 weights they do not depend on how many rows share
    the call either (``test_forward_block_never_moves_a_bit``); with float64
    ones a wide layer's may: ``local.mlp``'s 480-wide first layer rounds a
    short tail block otherwise than the same rows inside a longer block.
    A row may differ in the last place from one product over all rows:
    OpenBLAS multiplies small products with another kernel, which rounds
    some widths, such as an RGB head's 3 columns, differently.

    The gradient walks blocks of about :data:`BLOCK` rows, of whole rays
    too, back over the activations the graph keeps over all rows, through
    every layer of each head and then of the stack, in one pass, on the
    first parent's visit. Each stack sums the gradients of all its weights
    and biases, x's and u's are made when they are Nodes, and those of
    operands that are not Nodes are dropped. One rule joins the stacks:
    each returns its block's input gradient, the heads' blocks are summed
    in head order, as separate nodes' vjps would be, into the stack's
    output gradient, and the stack's block is added into x's zeroed
    gradient. The input gradient is bit-identical to one layer at a time
    (``test_mlp_value_and_input_gradients_keep_layer_by_layer_bits``): a
    64 x 64 layer's runs through a copy of w.T in runs of rows under
    :data:`SMALL_PRODUCT` (see ``_Stack.begin_gradients``). Other layers'
    products through the transposed view round a last block of under 19
    rows otherwise than the same rows of a longer one. dw and db are
    summed block by block, each block's db a product with a ones vector;
    with ``u``, the first layer's gradient is summed over each ray's rows,
    and ``u``, ``w_u`` and the first bias take theirs from those per-ray
    sums. The node then drops its hidden activations, so one
    backward pass can run through it.

    One rule places the layers' outputs: with a Node operand, each stack
    keeps over all rows what its gradient reads, the output of each relu'd
    layer; every other layer output, each one without a Node operand, is a
    new array of one span. The value is one float64 array over all rows,
    into which each span of the heads, or of a stack without heads, is
    copied. So a graph-free call holds, beyond its value, a few spans of
    layers, the bias tiles and one span of zeros per width, and allocates
    nothing of the gradient's size.
    """
    xv = value_of(x)
    if xv.ndim != 2:
        raise ShapeMismatch(f"mlp: x must be rows of features, got shape {xv.shape}")
    n = len(xv)
    trunk = _Stack("mlp", layers, u, k, xv.shape[1], n, bool(heads))
    heads = [_Stack(f"mlp: head {j}", *head, trunk.width, n, False)
             for j, head in enumerate(heads)]
    stacks = [trunk, *heads]
    dtypes = {a.dtype for s in stacks for a in (*s.ws, *s.bs)}
    if len(dtypes) > 1:
        raise TypeError(f"mlp: weights mix dtypes {sorted(map(str, dtypes))}")
    operands = [x, *(p for s in stacks for p in s.operands)]
    graph = any(isinstance(p, Node) for p in operands)
    # every block, forward and gradient, holds whole rays of every stack
    run = math.lcm(*(s.k for s in stacks))
    blocks = _row_blocks(n, run, FORWARD_BLOCK)
    per = max(1, FORWARD_SPAN // FORWARD_BLOCK)
    spans = [blocks[i:i + per] for i in range(0, len(blocks), per)]
    span = max((part[-1][1] - part[0][0] for part in spans), default=0)
    dt = trunk.dtype
    # with a graph, each stack keeps over all rows what its gradient reads,
    # the output of each relu'd layer; every other layer output is a new
    # array of one span
    for s in stacks:
        s.post = [np.empty((n, w.shape[1]), dt) if graph and acted else None
                  for w, acted in zip(s.ws, s.acted)]
    # the output stacks' columns of the value
    outs = heads or [trunk]
    ends = np.cumsum([0] + [s.width for s in outs])
    cols = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    value = np.empty((n, ends[-1]))
    # made after what outlives the forward, so that freeing it leaves no
    # hole under that in the heap
    zeros = {}
    for s in stacks:
        s.begin_forward(span, zeros)

    for part in spans:
        lo, hi = part[0][0], part[-1][1]
        h = trunk.forward(xv[lo:hi].astype(dt, copy=False), part)
        for s, c in zip(outs, cols):
            value[lo:hi, c] = h if s is trunk else s.forward(h, part)
        del h   # before the next span's layers are made
    # what only the forward reads is not kept for the gradient
    for s in stacks:
        s.tiles = s.zeros = s.per_ray = None

    def gradients(g):
        """Gradient of every operand, in ``operands`` order, x's None when x
        is not a Node."""
        blocks = _row_blocks(n, run, BLOCK)
        span = max((hi - lo for lo, hi in blocks), default=0)
        want_x = isinstance(x, Node)
        trunk.begin_gradients(want_x, span, n)
        for head in heads:
            head.begin_gradients(True, span, n)
        dx = np.zeros(xv.shape) if want_x else None
        for lo, hi in blocks:
            gz = None if heads else g[lo:hi].astype(dt, copy=False)
            for head, c in zip(heads, cols):
                d = head.backward(g[lo:hi, c].astype(dt), lo, hi, trunk.post[-1][lo:hi])
                gz = d if gz is None else np.add(gz, d, out=gz)
            d = trunk.backward(gz, lo, hi, xv[lo:hi])
            if want_x:
                dx[lo:hi] += d
        # the node's one visit is over: its activations go with it
        return [dx, *(d for s in stacks for d in s.gradients())]

    # the gradients are made once per backward visit and handed out one
    # parent at a time; once the last parent has its own, nothing is kept
    served = {}

    def vjp(j):
        def pull(g):
            if not served:
                served.update((i, d) for i, (p, d) in enumerate(zip(operands, gradients(g)))
                              if isinstance(p, Node))
            return served.pop(j)
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
    # numerically stable in both tails: the numerator is exactly 1 for
    # a >= 0 and exactly e below, without a select
    e = np.exp(-np.abs(av))
    ov = np.divide(np.exp(np.minimum(av, 0.0)), 1.0 + e)
    return _make(ov, [(a, lambda g: g * ov * (1.0 - ov))])


def softplus(a):
    av = value_of(a)
    ov = np.maximum(av, 0.0) + np.log1p(np.exp(-np.abs(av)))
    return _make(ov, [(a, lambda g: g * (1.0 / (1.0 + np.exp(-np.clip(av, -500, 500)))))])


# ---------------------------------------------------------------------------
# reductions


def sum_(a, axis=None, keepdims=False):
    av = value_of(a)
    ov = av.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, av.shape).copy()

    return _make(ov, [(a, vjp)])


def mean(a, axis=None, keepdims=False):
    av = value_of(a)
    n = av.size if axis is None else av.shape[axis]
    return div(sum_(a, axis=axis, keepdims=keepdims), float(n))


# ---------------------------------------------------------------------------
# 3-vector helpers


def _cross(a, b):
    """``np.cross`` along the last axis, by the same products and differences
    and with its bits, without its axis moves and copies."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.subtract(a[..., j] * b[..., k], a[..., k] * b[..., j], out=out[..., i])
    return out


def cross3(a, b):
    av, bv = value_of(a), value_of(b)
    if av.shape[-1] != 3 or bv.shape[-1] != 3:
        raise ShapeMismatch(f"cross3: last axis must be 3, got {av.shape} x {bv.shape}")
    out = _cross(av, bv)
    return _make(out, [
        (a, lambda g: _unbroadcast(_cross(bv, g), av.shape)),
        (b, lambda g: _unbroadcast(_cross(g, av), bv.shape)),
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


def gather(a, idx):
    """Row lookup (embedding-table style); gradient scatter-adds."""
    av = value_of(a)
    idx = np.asarray(idx)
    ov = np.take(av, idx, axis=0)

    def vjp(g):
        full = np.zeros_like(av)
        np.add.at(full, idx, g)
        return full

    return _make(ov, [(a, vjp)])


def exclusive_cumprod(a):
    """y_n = prod_{k<n} x_k with y_0 = 1, along the last axis.

    The gradient runs the reverse recurrence s_k = g_{k+1} + x_{k+1} s_{k+1}
    and returns y_k s_k. It never divides by x, so factors that underflow to
    zero (saturated compositing) keep finite gradients.
    """
    av = value_of(a)
    shifted = np.roll(av, 1, axis=-1)
    shifted[..., 0] = 1.0
    ov = np.cumprod(shifted, axis=-1)

    def vjp(g):
        s = np.zeros_like(g)
        for k in range(g.shape[-1] - 2, -1, -1):
            s[..., k] = g[..., k + 1] + av[..., k + 1] * s[..., k + 1]
        return ov * s

    return _make(ov, [(a, vjp)])


# ---------------------------------------------------------------------------
# rotation-exponential coefficients (elementwise in u = theta^2)
#
# A = sin(t)/t, B = (1 - cos t)/u, C = (1 - A)/u with t = sqrt(u). Each is
# F_m(u) = sum_n (-u)^n / (2n + m)! for m = 1, 2, 3, smooth at zero, which
# keeps screw-axis gradients finite at the all-zeros initialization. Through
# 1 - cos t the closed forms round as eps/u, their derivatives as eps/u^2,
# so below the switch the series serves: there its 10 terms truncate below
# 1e-17, and on both sides each value and derivative is exact to ~1e-14.

_U_SWITCH = 1.0


def _series(u, m):
    """F_m(u) and F_m'(u) = -sum_n (n + 1) (-u)^n / (2n + m + 2)!, each over
    10 terms by Horner's rule."""
    f = df = 0.0
    for n in reversed(range(10)):
        f = 1 / math.factorial(2 * n + m) - u * f
        df = (n + 1) / math.factorial(2 * n + m + 2) - u * df
    return f, -df


def rot_coefs(u):
    """The rotation coefficients A, B, C of u = theta**2, one node each:
    I + A [w]x + B [w]x^2 is the rotation by w, I + B [w]x + C [w]x^2 the
    translation matrix, with |w|^2 = u."""
    uv = value_of(u)
    big = uv >= _U_SWITCH
    # each branch sees only the u it serves: no division by zero, no overflow
    ub = np.where(big, uv, 1.0)
    t = np.sqrt(ub)
    a = np.sin(t) / t
    b = (1.0 - np.cos(t)) / ub
    c = (1.0 - a) / ub
    closed = ((a, (c - b) / 2.0), (b, (a - 2.0 * b) / (2.0 * ub)),
              (c, (b - 3.0 * c) / (2.0 * ub)))
    us = np.where(big, 0.0, uv)
    out = []
    for m, (f, df) in enumerate(closed, start=1):
        fs, dfs = _series(us, m)
        slope = np.where(big, df, dfs)
        out.append(_make(np.where(big, f, fs), [(u, lambda g, slope=slope: g * slope)]))
    return tuple(out)


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

    A vjp may return a view of its incoming gradient, so no gradient array
    is written to: each later contribution is summed into a new array.
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
