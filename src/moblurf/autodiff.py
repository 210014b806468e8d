"""Reverse-mode automatic differentiation over dense float64 arrays.

Every value an op returns is float64, and every operand is coerced to it,
but for one case: :func:`mlp` runs its products, forward and backward, in
the dtype of its weights, float32 for the copies of a field's weights that
``ParamStore.leaf`` hands out in training and inference alike, and still
returns a float64 value and float64 gradients. A leaf :class:`Node` may
therefore hold a float32 value; only :func:`mlp` reads one. It also keeps
a float32 plain ``x`` as it is: a graph-free render's encoded samples,
which ``fields.encode_position`` writes in float32 once for both fields.

Every op below is polymorphic, and one rule, in :func:`_make`, decides
what it returns: a :class:`Node` that remembers how to push gradients back
to its parents when at least one operand is a Node, the plain ndarray
otherwise. Training and inference therefore run the exact same forward
arithmetic. Frozen parameters are plain arrays (``ParamStore.leaf``), so
what depends on nothing but them and on data builds no graph; inference
freezes every group and builds none at all.

Ops are as coarse as the hot path needs: :func:`mlp` is a whole fully
connected relu stack (matmuls, biases and relus), with the heads that read
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
        # a float32 array stays float32: a field weight's leaf, which only
        # :func:`mlp` reads (see ParamStore.leaf)
        self.value = value if _is_float32(value) else _arr(value)
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


def _is_float32(x) -> bool:
    return getattr(x, "dtype", None) == np.float32


def _weight(w) -> np.ndarray:
    """An :func:`mlp` weight's or input's array, of a Node or a plain
    array: float32 as it is, anything else as :func:`value_of` gives it."""
    v = w.value if isinstance(w, Node) else w
    return v if _is_float32(v) else _arr(v)


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


# rows per block of :func:`mlp`'s forward with float32 weights (the fields'):
# 7 rays of 32 samples, or 28 of 8. A block of a 64-wide layer is
# 224 * 64 * 64 = 917 504 multiply-adds, under the 10^6 below which OpenBLAS
# (0.3.31) takes its small-matrix sgemm kernel. Per 512 rows of such a
# layer (one thread, AVX-512 Xeon): 46.6 us as one 512-row product
# (90 GFLOP/s), 33.2 us as 224-row ones (126 GFLOP/s); 256 rows, 2^20, are
# over the bound (89 GFLOP/s). The size is tuned to that BLAS: one without
# the small-matrix path only pays for the extra calls. The fields' bits do
# not depend on it
FORWARD_BLOCK = 224
# rows per block of :func:`mlp`'s gradient, which walks the activations the
# graph keeps over all rows. A 224-row gradient makes faster products, but
# its per-block float64 sums into dW and its extra calls eat the gain: MDD
# and BRI steps ran 12 and 9 % slower (in-process alternating A/B, same Xeon)
BLOCK = 512


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
    weights and biases, its optional per-ray operand, and, once
    :meth:`allocate` has run, the arrays its layers write. ``operands`` are
    its w0, b0, w1, b1, ... and then its u, if it has one; ``width`` is
    its input's width (``self.width`` its output's) and ``n`` the rows';
    ``acted_out`` says whether the relu follows the output layer too."""

    def __init__(self, name: str, layers, u, k: int, width: int, n: int,
                 acted_out: bool):
        self.n = n
        self.acted = [True] * (len(layers) - 1) + [acted_out]
        self.ws = [_weight(w) for w, _ in layers]
        self.bs = [_weight(b) for _, b in layers]
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

    def allocate(self, graph: bool, span: int, out_rows: int) -> None:
        """Allocate the layers' outputs: over all rows with a graph, whose
        gradient reads them, else over one forward block of ``span`` rows;
        the output layer over ``out_rows``."""
        last = len(self.ws) - 1
        # post[i] is layer i's output, its relu applied in place
        self.post = [np.empty((out_rows if i == last else self.n if graph else span,
                               w.shape[1]), self.dtype) for i, w in enumerate(self.ws)]
        # each bias as a block of rows: a contiguous add instead of a
        # broadcast one, with the same bits; the per-ray first layer adds its
        # own
        self.tiles = [None if i == 0 and self.uv is not None else np.tile(b, (span, 1))
                      for i, b in enumerate(self.bs)]
        # the relu's other operand as a block of zeros: a contiguous maximum
        # takes half the time of one against the scalar, with the same bits
        self.zeros = [np.zeros((span, w.shape[1]), self.dtype) if acted else None
                      for w, acted in zip(self.ws, self.acted)]

    def forward(self, h, lo: int, hi: int):
        """Rows ``lo:hi`` through every layer; ``h`` is their input."""
        for i, wv in enumerate(self.wins):
            rows = slice(lo, hi) if len(self.post[i]) == self.n else slice(hi - lo)
            z = self.post[i][rows]
            np.matmul(h, wv, out=z)
            if self.tiles[i] is None:
                by_ray = z.reshape(-1, self.k, z.shape[1])     # a view of z
                by_ray += self.per_ray[lo // self.k:hi // self.k, None]
            else:
                z += self.tiles[i][:hi - lo]
            if self.acted[i]:
                np.maximum(z, self.zeros[i][:hi - lo], out=z)
            h = z
        return h

    def begin_gradients(self, want_in: bool, want: list, span: int) -> bool:
        """Zeroed sums for the gradients of the operands that ``want`` marks,
        and what gradient blocks of ``span`` rows read; ``want_in`` marks
        the input. False when none is wanted."""
        if not (want_in or any(want)):
            self.lowest = None
            return False
        # the gradient goes down to the lowest layer with a wanted operand
        self.lowest = (0 if want_in or self.uv is not None and want[-1]
                       else want.index(True) // 2)
        # float64 sums of float32 block products: the rounding does not grow
        # with the number of blocks, and Adam reads them as they are
        self.dws = [np.zeros(w.shape) if t else None for w, t in zip(self.ws, want[::2])]
        self.dbs = [np.zeros(b.shape) if t else None for b, t in zip(self.bs, want[1::2])]
        # the rows of each dw that the input rows reach, as views
        self.dwins = [d if d is None else d[:len(w)] for d, w in zip(self.dws, self.wins)]
        # the first layer's gradient summed over each ray's rows
        self.d_ray = (np.empty((len(self.uv), self.ws[0].shape[1]))
                      if self.uv is not None and self.lowest == 0 else None)
        # a block's bias gradient is a product with ones: one BLAS call, where
        # a NumPy sum over the rows loops over them one at a time
        self.ones = np.ones(span, self.dtype)
        # each weight transposed for g @ w.T; a one-column weight as its row
        # tiled to a block: each entry of the product is one product then,
        # and a multiply by the tile gives its bits without a BLAS call of
        # inner dimension 1 or a broadcast multiply's short inner loops
        self.wts = [np.tile(w.T, (span, 1)) if w.shape[1] == 1 else w.T
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
        k = self.k
        for i in range(len(self.ws) - 1, self.lowest - 1, -1):
            if self.acted[i]:
                slope = self.post[i][lo:hi] > 0
                if owned:
                    gz *= slope
                else:
                    gz, owned = gz * slope, True
            if self.dwins[i] is not None:
                h = h_in.astype(self.dtype, copy=False) if i == 0 else self.post[i - 1][lo:hi]
                self.dwins[i] += h.T @ gz
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
        self.post = None
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

    The products run in the dtype of the weights: float32 weights (plain
    arrays or leaf Nodes) give float32 layer buffers and bias tiles, and
    each block's input, and ``u`` once, is cast to float32, unless a plain
    ``x`` is float32 already: it is read as it is, with the same bits as
    its float64 source cast block by block. The value is float64 either
    way. The backward does the same: each block of the output gradient is
    cast to float32, and the heads' buffers, the scratch blocks and the
    bias ones-vector are float32. x's and u's gradients are float64, and so
    are the weights' and biases', summed block by block in float64 from
    float32 block products. All weights of all stacks must share one dtype,
    or the call raises TypeError.

    The forward runs in blocks of about :data:`FORWARD_BLOCK` rows with
    float32 weights, :data:`BLOCK` with float64 ones, of whole rays of every
    ``k``, each block through all the layers, the heads and
    the output layers too, while it stays in cache; each bias is added from
    a block of copies of it, and each relu takes the maximum with a block of
    zeros. Every product is one block's and one stack's, so a row's bits do
    not depend on the stacks beside it. With float32 weights they do not
    depend on how many rows share the call either
    (``test_forward_block_never_moves_a_bit[static]`` and ``[latent]``);
    with float64 ones a wide layer's may: ``local.mlp``'s 488-column first
    layer rounds the 8-row tail of 232 rows differently as its own block
    than inside one 232-row block, so its float64 blocks stay :data:`BLOCK`
    rows (``test_forward_block_never_moves_a_bit[local]``). A row may differ
    in the last place from one product over all rows: OpenBLAS multiplies
    small products (under about 10^6 multiply-adds) with another kernel,
    which rounds some widths, such as an RGB head's 3 columns, differently.

    The gradient walks blocks of about :data:`BLOCK` rows, of whole rays
    too, back over the activations the graph keeps over all rows, through
    each head and then through the stack, and makes the gradients of all
    Node operands in one pass, on the first parent's visit. The heads'
    gradients of the stack's output are summed in a block-sized buffer in
    their order, each product made in a scratch block and added, as
    separate nodes' vjps would be summed; the input gradient is
    bit-identical to one layer at a time, dw and db are summed block by
    block, each block's db a product with a ones vector; with ``u``, the
    first layer's gradient is summed over each ray's rows, and ``u``,
    ``w_u`` and the first bias take theirs from those per-ray sums. The
    node then drops its hidden activations, so one backward pass can run
    through it. Without a Node operand every hidden layer lives in one
    forward-block-sized buffer, only the value spans all rows, and nothing
    of the gradient's size is allocated.
    """
    xv = _weight(x)
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
    # every block, forward and gradient, holds whole rays of every stack.
    # Float64 weights keep the gradient's blocks, and with them their bits:
    # in float64 a product as wide as local.mlp's first layer (488 columns)
    # rounds a short remainder block differently from the same rows in a
    # longer block, so 224-row blocks would move its 8-row tail of 232 rows
    run = math.lcm(*(s.k for s in stacks))
    blocks = _row_blocks(n, run, FORWARD_BLOCK if trunk.dtype == np.float32 else BLOCK)
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
        h = trunk.forward(xv[lo:hi].astype(trunk.dtype, copy=False), lo, hi)
        for head, c in zip(heads, cols):
            value[lo:hi, c] = head.forward(h, lo, hi)
    value = value.astype(np.float64, copy=False)
    # what only the forward reads is not kept for the gradient
    for s in stacks:
        s.tiles = s.zeros = s.per_ray = None

    def gradients(g, into):
        """Gradient of every Node operand, in ``operands`` order; x's is
        added into ``into`` when that is given."""
        want = [isinstance(p, Node) for p in operands]
        at = np.cumsum([1] + [len(s.operands) for s in stacks])
        wants = [want[a:b] for a, b in zip(at[:-1], at[1:])]
        blocks = _row_blocks(n, run, BLOCK)
        span = max((hi - lo for lo, hi in blocks), default=0)
        deep = trunk.begin_gradients(want[0], wants[0], span)
        heads_on = [h.begin_gradients(deep, w, span) for h, w in zip(heads, wants[1:])]
        dt = trunk.dtype
        dx = scratch = None
        if want[0]:
            # each block's product is made here, in the weights' dtype, then
            # added into x's float64 gradient
            scratch = np.empty((span, xv.shape[1]), dt)
            dx = np.zeros(xv.shape) if into is None else into
        # a block of the stack's output gradient, the scratch its sums use,
        # and each head's output gradient, copied out of g's columns
        g_out = np.empty((span, trunk.width), dt) if heads and deep else None
        g_sum = np.empty_like(g_out) if len(heads) > 1 and deep else None
        g_heads = [np.empty((span, h.width), dt) for h in heads]
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
                gz, owned = ((g[lo:hi], False) if g.dtype == dt
                             else (g[lo:hi].astype(dt), True))
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
