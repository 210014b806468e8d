import functools
import tracemalloc

import numpy as np
import pytest

from moblurf import autodiff as ad
from moblurf import gradcheck as gc
from moblurf.fields import encode_position
from moblurf.optim import LrSchedule, OptimError, ParamStore, adam_step


def test_cross3_right_hand_basis():
    out = ad.cross3(np.array([[1.0, 0, 0]]), np.array([[0.0, 1, 0]]))
    assert np.allclose(out, [[0, 0, 1]])


def test_normalize3_axis_aligned():
    out = ad.normalize3(np.array([[0.0, 0.0, 2.0]]))
    assert np.allclose(out, [[0, 0, 1]])


def test_sigmoid_symmetry_point():
    assert ad.sigmoid(np.array(0.0)) == 0.5


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ad.ShapeMismatch) as exc:
        ad.add(np.zeros((2, 3)), np.zeros((4, 5)))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
def test_binary_ops_name_themselves_in_shape_mismatch(name):
    with pytest.raises(ad.ShapeMismatch,
                       match=rf"^{name}: shapes \(2, 3\) and \(4, 5\) do not broadcast$"):
        getattr(ad, name)(ad.Node(np.zeros((2, 3))), np.ones((4, 5)))


def test_value_of_keeps_float32_arrays_and_coerces_the_rest():
    # a float32 array, plain or a Node's, is returned as the same object;
    # every other input comes back as float64
    w = np.ones((2, 3), np.float32)
    assert ad.value_of(w) is w
    node = ad.Node(w)
    assert node.value is w and ad.value_of(node) is w
    for x in (np.arange(3), np.ones(2, np.float16), [1, 2], 3.0, ad.Node([1, 2])):
        v = ad.value_of(x)
        assert type(v) is np.ndarray and v.dtype == np.float64
    f64 = np.zeros(4)
    assert ad.value_of(f64) is f64


def test_mlp_shape_error():
    x = np.zeros((2, 3))
    with pytest.raises(ad.ShapeMismatch):
        ad.mlp(np.zeros(3), [(np.zeros((3, 3)), np.zeros(3))])
    with pytest.raises(ad.ShapeMismatch):
        ad.mlp(x, [(np.zeros((2, 3)), np.zeros(3))])
    with pytest.raises(ad.ShapeMismatch, match=r"layer 0: .*\(4,\)"):
        ad.mlp(x, [(np.zeros((3, 3)), np.zeros(4))])
    with pytest.raises(ad.ShapeMismatch, match=r"layer 1: .*\(4, 2\)"):
        ad.mlp(x, [(np.zeros((3, 3)), np.zeros(3)),
                   (np.zeros((4, 2)), np.zeros(2))])
    # the options are keyword-only: a third positional argument raises
    # instead of being read as u
    with pytest.raises(TypeError):
        ad.mlp(x, [(np.zeros((3, 3)), np.zeros(3))], "relu")


def test_backward_square():
    x = ad.Node(np.array(3.0))
    y = ad.mul(x, x)
    ad.backward(y)
    assert np.allclose(x.grad, 6.0)


def test_encoding_gradient_at_zero():
    # d/dx of x + sum_k sin(f_k x) at 0 is 1 + sum_k f_k, f_k = 2^k pi
    x = ad.Node(np.zeros((1, 3)))
    enc = encode_position(x, 3)
    pick = np.zeros((1, 21))
    pick[0, 0] = 1.0
    for k in range(3):
        pick[0, 3 + 6 * k] = 1.0
    ad.backward(ad.sum_(ad.mul(enc, pick)))
    assert np.allclose(x.grad, [[1.0 + 7.0 * np.pi, 0.0, 0.0]])


def read_out(width):
    """A head that reads a stack's activated output as it is: one identity
    layer, whose products are exact, forward and backward."""
    return [(np.eye(width), np.zeros(width))], None, 1


def test_zero_preactivation_gets_zero_gradient():
    # the relu's kink passes no gradient
    x = ad.Node(np.array([[1.0, -1.0], [2.0, 3.0]]))
    w = ad.Node(np.array([[1.0], [1.0]]))   # row 0 sums to exactly zero
    b = ad.Node(np.zeros(1))
    ad.backward(ad.sum_(ad.mlp(x, [(w, b)], heads=[read_out(1)])))
    assert np.array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(w.grad, [[2.0], [3.0]])
    assert np.array_equal(b.grad, [1.0])


MLP_SIZES = (9, 16, 16, 3)   # two hidden layers, an RGB head's 3-wide output


def _mlp_inputs(rows, seed=11, sizes=MLP_SIZES):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, sizes[0]))
    layers = [(rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in),
               rng.normal(size=fan_out) * 0.1)
              for fan_in, fan_out in zip(sizes, sizes[1:])]
    return x, layers, rng.normal(size=(rows, sizes[-1]))


def _softplus_decode(z, g):
    """softplus(z) and g times its slope, with ``ad.softplus``'s arithmetic."""
    slope = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))), g * slope


def _layer_by_layer(x, layers, activated, g, decode=False):
    """Output, dx, dws, dbs of the stack evaluated one layer at a time over
    all rows, with the arithmetic of separate dense and relu nodes; with
    ``decode``, of its output decoded by a softplus node as well."""
    hs = [x]
    for i, (w, b) in enumerate(layers):
        z = hs[-1] @ w
        z += b
        if i < len(layers) - 1 or activated:
            z = np.maximum(z, 0.0)
        hs.append(z)
    out = hs[-1]
    if decode:
        out, g = _softplus_decode(out, g)
    dws, dbs = [], []
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1 or activated:
            g = g * (hs[i + 1] > 0)
        dws.insert(0, hs[i].T @ g)
        dbs.insert(0, g.sum(axis=0))
        g = g @ layers[i][0].T
    return out, g, dws, dbs


def _close(a, b, rel=1e-13):
    return np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


def _decoded(out, decode):
    """``out``, or ``out`` decoded by ``ad.softplus`` as the fields decode
    their densities."""
    return ad.softplus(out) if decode else out


def _stack(x, layers, activated, **kw):
    """``ad.mlp`` of ``layers``; ``activated`` reads their relu'd output
    through :func:`read_out`, as a trunk's heads read it."""
    heads = [read_out(layers[-1][0].shape[1])] if activated else []
    return ad.mlp(x, layers, heads=heads, **kw)


# the ids name whether a head reads the output layer (True: its relu
# applied), then the relu stack's output as it is or decoded by softplus
@pytest.mark.parametrize("activated, decode", [
    pytest.param(False, False, id="False-relu"),
    pytest.param(True, False, id="True-relu"),
    pytest.param(False, True, id="False-softplus"),
    pytest.param(True, True, id="True-softplus"),
])
@pytest.mark.parametrize("rows, sizes", [
    # inside one block, at its end and across one or two block boundaries
    *(pytest.param(rows, MLP_SIZES, id=str(rows))
      for rows in (0, 1, 512, 513, 1061, ad.BLOCK, ad.BLOCK + 1, 2 * ad.BLOCK + 37)),
    # a trunk's 64-wide output layer, blocked with the hidden ones
    pytest.param(3 * ad.BLOCK + 37, (64, 64, 64), id="wide_out"),
    # the sigma and staticness heads' form: dx is a product of inner
    # dimension 1, taken as a broadcast multiply
    pytest.param(2 * ad.BLOCK + 37, (64, 1), id="one_column_head"),
])
def test_mlp_matches_layer_by_layer_reference(rows, sizes, activated, decode):
    x, layers, g = _mlp_inputs(rows, sizes=sizes)
    out, dx, dws, dbs = _layer_by_layer(x, layers, activated, g, decode)
    # rows cross block boundaries: forward and dx bit for bit, dw and db to
    # rounding of their block-by-block sums
    plain = _decoded(_stack(x, layers, activated), decode)
    assert type(plain) is np.ndarray and np.array_equal(plain, out)
    xn = ad.Node(x)
    params = [(ad.Node(w), ad.Node(b)) for w, b in layers]
    node = _decoded(_stack(xn, params, activated), decode)
    assert np.array_equal(node.value, out)
    ad.backward(ad.sum_(ad.mul(node, g)))
    assert np.array_equal(xn.grad, dx)
    for (w, b), dw, db in zip(params, dws, dbs):
        assert _close(w.grad, dw) and _close(b.grad, db)


@pytest.mark.parametrize("x_node", [False, True], ids=["plain_x", "node_x"])
# the (w, b) pairs that are Nodes: none, the output layer's alone, or all
@pytest.mark.parametrize("trainable", ["frozen", "last_layer", "trainable"])
def test_mlp_gradients_reach_node_operands_only(x_node, trainable, monkeypatch):
    x, layers, g = _mlp_inputs(ad.BLOCK + 5)
    out, dx, dws, dbs = _layer_by_layer(x, layers, True, g)
    xin = ad.Node(x) if x_node else x
    nodes_from = {"frozen": len(layers), "last_layer": len(layers) - 1, "trainable": 0}
    params = [(ad.Node(w), ad.Node(b)) if i >= nodes_from[trainable] else (w, b)
              for i, (w, b) in enumerate(layers)]
    built = []
    init = ad.Node.__init__
    monkeypatch.setattr(ad.Node, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    res = _stack(xin, params, True)
    operands = [xin, *(p for pair in params for p in pair)]
    if not any(isinstance(p, ad.Node) for p in operands):
        # nothing to differentiate: a plain array and no graph at all
        assert type(res) is np.ndarray and np.array_equal(res, out)
        assert not built
        return
    assert isinstance(res, ad.Node) and np.array_equal(res.value, out)
    # one parent per Node operand, none for the constants
    nodes = [p for p in operands if isinstance(p, ad.Node)]
    assert [p for p, _ in res.parents] == nodes
    ad.backward(ad.sum_(ad.mul(res, g)))
    if x_node:
        assert np.array_equal(xin.grad, dx)
    for (w, b), dw, db in zip(params, dws, dbs):
        if isinstance(w, ad.Node):
            assert _close(w.grad, dw) and _close(b.grad, db)
    # each Node operand's gradient has the bits it has when every operand
    # is a Node: the same products, whatever the constants' gradients
    ref = [ad.Node(x), *(ad.Node(p) for pair in layers for p in pair)]
    ref_layers = list(zip(ref[1::2], ref[2::2]))
    ad.backward(ad.sum_(ad.mul(_stack(ref[0], ref_layers, True), g)))
    for p, r in zip(operands, ref):
        if isinstance(p, ad.Node):
            assert np.array_equal(p.grad, r.grad)


def _per_ray_inputs(rays, k, c=4):
    """x (rays * k, MLP_SIZES[0] - c), per-ray u (rays, c), the layers and an
    output gradient, and the joined input [x, repeat(u, k)]."""
    joined, layers, g = _mlp_inputs(rays * k)
    u = joined[::k, -c:].copy()
    joined[:, -c:] = np.repeat(u, k, axis=0)
    return joined[:, :-c].copy(), u, layers, g, joined


@pytest.mark.parametrize("nodes", ["x_layers", "x_layers_u", "u"])
# the trunks' form, the RGB heads' (a linear output layer) and the sigma
# heads' (a linear output layer decoded by softplus)
@pytest.mark.parametrize("activated, decode", [
    pytest.param(True, False, id="relu-True"),
    pytest.param(False, False, id="relu-False"),
    pytest.param(False, True, id="softplus-False"),
])
@pytest.mark.parametrize("k", [1, 24, 32])
@pytest.mark.parametrize("rays", [0, 1, 3, None], ids=["0", "1", "3", "3_blocks"])
def test_mlp_per_ray_matches_joined_input(rays, k, activated, decode, nodes):
    # the per-ray operand is the joined input with the first layer's sum
    # reassociated; 24 rows per ray do not divide BLOCK. ``nodes`` names the
    # operands that are Nodes
    if rays is None:
        rays = 2 * (ad.BLOCK // k) + 2      # two full blocks and a third
    x, u, layers, g, joined = _per_ray_inputs(rays, k)
    ref_in = ad.Node(joined)
    ref_params = [(ad.Node(w), ad.Node(b)) for w, b in layers]
    ref = _decoded(_stack(ref_in, ref_params, activated), decode)
    ad.backward(ad.sum_(ad.mul(ref, g)))
    xin = ad.Node(x) if "x" in nodes else x
    uin = ad.Node(u) if "u" in nodes else u
    params = [(ad.Node(w), ad.Node(b)) if "layers" in nodes else (w, b)
              for w, b in layers]
    out = _decoded(_stack(xin, params, activated, u=uin, k=k), decode)
    assert _close(out.value, ref.value, rel=1e-14)
    assert np.array_equal(
        _decoded(_stack(x, layers, activated, u=u, k=k), decode), out.value)
    ad.backward(ad.sum_(ad.mul(out, g)))
    c = u.shape[1]
    if "x" in nodes:
        assert _close(xin.grad, ref_in.grad[:, :-c])
    if "u" in nodes:
        assert _close(uin.grad, ref_in.grad[:, -c:].reshape(rays, k, c).sum(axis=1))
    if "layers" in nodes:
        for (w, b), (rw, rb) in zip(params, ref_params):
            assert _close(w.grad, rw.grad) and _close(b.grad, rb.grad)


def test_mlp_per_ray_through_one_layer():
    # the first layer is the output layer too: the per-ray addend covers
    # every row at once
    x, u, layers, g, joined = _per_ray_inputs(5, 3)
    w, b = layers[0]
    un, wn, bn = ad.Node(u), ad.Node(w), ad.Node(b)
    out = _stack(x, [(wn, bn)], True, u=un, k=3)
    ref = np.maximum(joined @ w + b, 0.0)
    assert _close(out.value, ref, rel=1e-14)
    ad.backward(ad.sum_(out))
    gz = (ref > 0).astype(float)
    per_ray = gz.reshape(5, 3, -1).sum(axis=1)
    assert _close(un.grad, per_ray @ w[-4:].T)
    assert _close(wn.grad, joined.T @ gz) and _close(bn.grad, gz.sum(axis=0))


def test_mlp_per_ray_plain_operands_build_no_graph(monkeypatch):
    x, u, layers, _, joined = _per_ray_inputs(3, 24)
    built = []
    init = ad.Node.__init__
    monkeypatch.setattr(ad.Node, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    out = ad.mlp(x, layers, u=u, k=24)
    assert type(out) is np.ndarray and not built
    assert _close(out, ad.mlp(joined, layers), rel=1e-14)


def test_mlp_per_ray_shape_errors():
    x, u, layers, _, _ = _per_ray_inputs(3, 4)
    with pytest.raises(ad.ShapeMismatch, match="per-ray"):
        ad.mlp(x, layers, u=u[:2], k=4)
    with pytest.raises(ad.ShapeMismatch, match="per-ray"):
        ad.mlp(x, layers, u=u, k=3)
    with pytest.raises(ad.ShapeMismatch, match="layer 0"):
        ad.mlp(x, layers, u=u[:, :2], k=4)


HEAD_RAYS, HEAD_K = 2 * (ad.BLOCK // 8) + 3, 8   # two full blocks and a third


def _field_inputs(trunk_u):
    """A field's operands over HEAD_RAYS rays of HEAD_K rows: x, the trunk's
    layers and optional per-ray u, an RGB-like per-ray two-layer head and
    two one-column heads, and an output gradient for each head."""
    rng = np.random.default_rng(31)
    n, rays = HEAD_RAYS * HEAD_K, HEAD_RAYS

    def layers(*sizes):
        return [(rng.normal(size=(a, b)) / np.sqrt(a), rng.normal(size=b) * 0.1)
                for a, b in zip(sizes, sizes[1:])]

    x = rng.normal(size=(n, 9))
    u = rng.normal(size=(rays, 3)) if trunk_u else None
    trunk = layers(9 + 3 * trunk_u, 16, 16)
    heads = [(layers(16 + 4, 8, 3), rng.normal(size=(rays, 4)), HEAD_K),
             (layers(16, 1), None, 1), (layers(16, 1), None, 1)]
    return x, u, trunk, heads, [rng.normal(size=(n, 3)), rng.normal(size=(n, 1)),
                                rng.normal(size=(n, 1))]


def _as_nodes(x, u, trunk, heads):
    node = lambda a: None if a is None else ad.Node(a)
    pairs = lambda ls: [(ad.Node(w), ad.Node(b)) for w, b in ls]
    return (node(x), node(u), pairs(trunk),
            [(pairs(ls), node(hu), hk) for ls, hu, hk in heads])


def _leaves(x, u, trunk, heads):
    return [p for p in (x, u, *(a for pair in trunk for a in pair),
                        *(a for ls, hu, _ in heads for a in (*(q for pr in ls for q in pr), hu)))
            if p is not None]


# the heads' outputs as they are, or decoded by softplus
@pytest.mark.parametrize("decode", [False, True], ids=["relu", "softplus"])
@pytest.mark.parametrize("trunk_u", [False, True], ids=["static", "per_ray_trunk"])
def test_mlp_heads_match_separate_nodes(trunk_u, decode):
    # a field as one node against the trunk and heads as separate nodes,
    # their outputs weighted in head order, so that backward sums the heads'
    # gradients of the trunk output in head order too
    x, u, trunk, heads, gs = _field_inputs(trunk_u)
    ref = _as_nodes(x, u, trunk, heads)
    h = _stack(ref[0], ref[2], True, u=ref[1], k=HEAD_K)
    outs = [_decoded(ad.mlp(h, ls, u=hu, k=hk), decode) for ls, hu, hk in ref[3]]
    loss = ad.sum_(ad.mul(outs[0], gs[0]))
    for out, g in zip(outs[1:], gs[1:]):
        loss = ad.add(loss, ad.sum_(ad.mul(out, g)))
    ad.backward(loss)

    got = _as_nodes(x, u, trunk, heads)
    fused = _decoded(ad.mlp(got[0], got[2], u=got[1], k=HEAD_K, heads=got[3]), decode)
    # forward bit for bit, with and without a graph
    assert np.array_equal(fused.value, np.hstack([o.value for o in outs]))
    assert np.array_equal(
        _decoded(ad.mlp(x, trunk, u=u, k=HEAD_K, heads=heads), decode),
        fused.value)
    ad.backward(ad.sum_(ad.mul(fused, np.hstack(gs))))
    # every gradient bit for bit: the same products, summed in the same order
    for a, b in zip(_leaves(*got), _leaves(*ref)):
        assert np.array_equal(a.grad, b.grad)


def test_mlp_heads_gradients_reach_node_operands_only():
    # a frozen trunk under trainable heads, then x alone a Node: each Node
    # operand's gradient has the bits it has when every operand is a Node.
    # The gradient walks down the trunk in both, and the constants'
    # gradients are dropped
    x, u, trunk, heads, gs = _field_inputs(False)
    ref = _as_nodes(x, u, trunk, heads)
    ad.backward(ad.sum_(ad.mul(ad.mlp(ref[0], ref[2], heads=ref[3]),
                               np.hstack(gs))))
    _, _, _, node_heads = _as_nodes(x, u, trunk, heads)
    out = ad.mlp(x, trunk, heads=node_heads)
    assert [p for p, _ in out.parents] == _leaves(None, None, [], node_heads)
    ad.backward(ad.sum_(ad.mul(out, np.hstack(gs))))
    h = _stack(x, trunk, True)
    w, b = node_heads[1][0][0]
    assert _close(w.grad, h.T @ gs[1]) and _close(b.grad, gs[1].sum(axis=0))
    for a, r in zip(_leaves(None, None, [], node_heads), _leaves(None, None, [], ref[3])):
        assert np.array_equal(a.grad, r.grad)
    # x alone a Node: its gradient walks through the constant heads and trunk
    xn = ad.Node(x)
    ad.backward(ad.sum_(ad.mul(ad.mlp(xn, trunk, heads=heads),
                               np.hstack(gs))))
    assert np.array_equal(xn.grad, ref[0].grad)


def test_mlp_head_shape_error():
    # a head whose first layer does not fit the trunk's width
    x, u, trunk, heads, _ = _field_inputs(False)
    bad = [(np.zeros((15, 1)), np.zeros(1))]
    with pytest.raises(ad.ShapeMismatch, match=r"head 1: layer 0: \(\d+, 16\) @ \(15, 1\)"):
        ad.mlp(x, trunk, heads=[heads[0], (bad, None, 1)])
    with pytest.raises(ad.ShapeMismatch, match="head 0: per-ray"):
        ad.mlp(x, trunk, heads=[(heads[0][0], heads[0][1][:-1], HEAD_K)])


def _float32(layers):
    return [(w.astype(np.float32), b.astype(np.float32)) for w, b in layers]


@pytest.mark.parametrize("with_heads", [False, True], ids=["stack", "field"])
def test_mlp_runs_in_its_weights_dtype(with_heads):
    # float32 weights run the products in float32; the value is float64
    x, u, trunk, heads, _ = _field_inputs(True)
    heads = heads if with_heads else []
    ref = ad.mlp(x, trunk, u=u, k=HEAD_K, heads=heads)
    got = ad.mlp(x, _float32(trunk), u=u, k=HEAD_K,
                 heads=[(_float32(ls), hu, hk) for ls, hu, hk in heads])
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert not np.array_equal(got, ref)
    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


@pytest.mark.parametrize("with_heads", [False, True], ids=["stack", "field"])
def test_mlp_float32_weight_nodes_give_float64_gradients(with_heads):
    # float32 weight Nodes, as a training step's field leaves: the backward
    # runs its products in float32, and every gradient, of x, of u and of
    # the weights, is float64 and within 1e-5 of the float64 call's. x
    # reaches two calls, so the second adds its gradient into the first's
    x, u, trunk, heads, gs = _field_inputs(True)
    heads = heads if with_heads else []
    g = np.hstack(gs) if with_heads else np.random.default_rng(3).normal(size=(len(x), 16))

    def gradients(cast):
        ops = _as_nodes(x, u, cast(trunk), [(cast(ls), hu, hk) for ls, hu, hk in heads])
        outs = [ad.mlp(ops[0], ops[2], u=ops[1], k=HEAD_K, heads=ops[3]) for _ in range(2)]
        assert all(o.value.dtype == np.float64 for o in outs)
        ad.backward(ad.add(ad.sum_(ad.mul(outs[0], g)), ad.sum_(ad.mul(outs[1], -0.5 * g))))
        return [p.grad for p in _leaves(*ops)]

    want = gradients(lambda ls: ls)
    got = gradients(_float32)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.float64 and a.shape == b.shape
        assert 0 < np.linalg.norm(a - b) <= 1e-5 * np.linalg.norm(b)


def test_mlp_rejects_weights_of_mixed_dtypes():
    x, u, trunk, heads, _ = _field_inputs(False)
    with pytest.raises(TypeError, match="mix dtypes"):
        ad.mlp(x, _float32(trunk), heads=heads)
    (w, b), *rest = trunk
    with pytest.raises(TypeError, match="mix dtypes"):
        ad.mlp(x, [(w.astype(np.float32), b), *rest])


@pytest.mark.parametrize("k", [1, 8, 24, 32])
@pytest.mark.parametrize("block", [ad.FORWARD_BLOCK, ad.BLOCK], ids=["forward", "gradient"])
def test_row_blocks_hold_whole_rays_within_the_block(k, block):
    for n in range(0, 3 * block + 3 * k, k):
        blocks = ad._row_blocks(n, k, block)
        # the blocks tile the rows in order
        ends = [0, *(hi for _, hi in blocks)]
        assert [lo for lo, _ in blocks] == ends[:-1] and ends[-1] == n
        sizes = [hi - lo for lo, hi in blocks]
        assert all(m > 0 and m % k == 0 for m in sizes)
        # only a one-row remainder, merged into the last block, goes over
        assert all(m <= block for m in sizes[:-1])
        assert not sizes or sizes[-1] <= block or (k == 1 and sizes[-1] == block + 1)


def _desk_node(kind, plain=False, rays=None):
    """Operands of a desk MLP node, and an output gradient: a field with
    float32 weights, as in training, past two gradient blocks (the static
    one on 32 samples per ray: a 4-layer 64-wide trunk, a per-ray RGB head
    and two one-column heads; the dynamic one on a latent ray's 8: a per-ray
    trunk, an RGB and a sigma head). ``rows`` is the static one with no
    per-ray operand, one row per ray, on 9 forward blocks, the last holding
    a one-row remainder. With ``plain``, every operand is a plain array and
    x is float32, as a graph-free render passes them. ``rays`` overrides
    the number of rays."""
    rng = np.random.default_rng(41)
    leaf = (lambda a: a) if plain else ad.Node

    def layers(*sizes):
        return [(leaf((rng.normal(size=(a, b)) / np.sqrt(a)).astype(np.float32)),
                 leaf((rng.normal(size=b) * 0.1).astype(np.float32)))
                for a, b in zip(sizes, sizes[1:])]

    k = {"static": 32, "latent": 8, "rows": 1}[kind]
    rays = rays or (2 * (ad.BLOCK // k) + 5 if k > 1 else 9 * ad.FORWARD_BLOCK + 1)
    x = rng.normal(size=(rays * k, 51))
    x = x.astype(np.float32) if plain else ad.Node(x)
    u = leaf(rng.normal(size=(rays, 8))) if kind == "latent" else None
    trunk = layers(51 + (u is not None) * 8, 64, 64, 64, 64)
    heads = [(layers(64, 64, 3), None, 1) if kind == "rows" else
             (layers(64 + 27, 64, 3), leaf(rng.normal(size=(rays, 27))), k),
             (layers(64, 1), None, 1)]
    if kind != "latent":
        heads.append((layers(64, 1), None, 1))
    return x, u, k, trunk, heads, rng.normal(size=(rays * k, 3 + len(heads) - 1))


def _value_and_gradients(x, u, k, trunk, heads, g):
    """A node's value and, when it has a graph, every operand's gradient."""
    out = ad.mlp(x, trunk, u=u, k=k, heads=heads)
    if not isinstance(out, ad.Node):
        return [out]
    ad.backward(ad.sum_(ad.mul(out, g)))
    return [out.value, *(a.grad for a in _leaves(x, u, trunk, heads))]


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["static", "latent"])
def test_forward_block_never_moves_a_bit(kind, monkeypatch):
    # a node's value and every operand's gradient, byte for byte, with the
    # forward in its own blocks and in the gradient's
    got = _value_and_gradients(*_desk_node(kind))
    monkeypatch.setattr(ad, "FORWARD_BLOCK", ad.BLOCK)
    _assert_same_bytes(got, _value_and_gradients(*_desk_node(kind)))


@pytest.mark.parametrize("plain", [False, True], ids=["graph", "plain"])
@pytest.mark.parametrize("kind", ["static", "latent", "rows"])
def test_forward_span_never_moves_a_bit(kind, plain, monkeypatch):
    # the value and, with a graph, every operand's gradient, byte for byte,
    # with one forward block per span (each layer block by block) and with
    # spans of several blocks, whose last is ragged: fewer blocks, the last
    # of them partial or, one row per ray, holding a one-row remainder
    spans = [3 * ad.FORWARD_BLOCK, ad.FORWARD_SPAN]
    monkeypatch.setattr(ad, "FORWARD_SPAN", ad.FORWARD_BLOCK)
    want = _value_and_gradients(*_desk_node(kind, plain))
    for span in spans:
        monkeypatch.setattr(ad, "FORWARD_SPAN", span)
        _assert_same_bytes(_value_and_gradients(*_desk_node(kind, plain)), want)


@pytest.mark.parametrize("rows", [232, 460])
def test_forward_span_keeps_float64_bits(rows, monkeypatch):
    # local.mlp's shape in float64, as training runs it: a 480-wide first
    # layer with an 8-wide per-ray operand, whose tail block rounds as it
    # does alone, and a 6-column output layer, one product over a span of
    # two or three blocks
    joined, layers, g = _mlp_inputs(rows, seed=43, sizes=(488, 64, 64, 64, 64, 6))
    x, u = joined[:, :480].copy(), joined[:, 480:].copy()

    def run():
        nodes = [(ad.Node(w), ad.Node(b)) for w, b in layers]
        return _value_and_gradients(ad.Node(x), ad.Node(u), 1, nodes, [], g)

    want = run()
    monkeypatch.setattr(ad, "FORWARD_SPAN", ad.FORWARD_BLOCK)
    _assert_same_bytes(run(), want)


def _per_ray_layers(h, u, k, layers, acted_out):
    """Every layer's output, over all rows at once, of a stack whose first
    layer reads the per-ray operand ``u`` too (see ``ad.mlp``)."""
    hs = [h]
    for i, (w, b) in enumerate(layers):
        if i == 0 and u is not None:
            z = h @ w[:h.shape[1]]
            per_ray = u.astype(w.dtype) @ w[h.shape[1]:]
            per_ray += b
            z.reshape(-1, k, z.shape[1])[...] += per_ray[:, None]
        else:
            z = hs[-1] @ w
            z += b
        hs.append(np.maximum(z, 0) if i < len(layers) - 1 or acted_out else z)
    return hs


def _per_ray_gradients(hs, u, k, layers, acted_out, gz):
    """The input's and u's gradients of :func:`_per_ray_layers`' stack,
    one product over all rows per layer, in the weights' dtype."""
    du = None
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1 or acted_out:
            gz = gz * (hs[i + 1] > 0)
        w = layers[i][0]
        if i == 0 and u is not None:
            d_ray = gz.reshape(-1, k, gz.shape[1]).sum(axis=1).astype(np.float64)
            du = d_ray @ w[hs[0].shape[1]:].T
        gz = gz @ w[:hs[i].shape[1]].T
    return gz, du


def _layer_by_layer_node(x, u, k, trunk, heads, g):
    """An ``ad.mlp`` node's value, x's gradient and then each per-ray
    operand's, u's and the heads' in order, evaluated one layer at a time
    over all rows: the products as NumPy makes them, one per layer, in the
    weights' dtype, and the heads' input gradients summed in head order."""
    dt = trunk[0][0].dtype
    hs = _per_ray_layers(x.astype(dt), u, k, trunk, bool(heads))
    if not heads:
        dx, du = _per_ray_gradients(hs, u, k, trunk, False, g.astype(dt))
        return [hs[-1].astype(np.float64), dx.astype(np.float64), du]
    outs, gz, dus, c = [], None, [], 0
    for layers, hu, hk in heads:
        head = _per_ray_layers(hs[-1], hu, hk, layers, False)
        width = layers[-1][0].shape[1]
        d, dhu = _per_ray_gradients(head, hu, hk, layers, False,
                                    g[:, c:c + width].astype(dt))
        outs.append(head[-1])
        dus.append(dhu)
        gz = d if gz is None else gz + d
        c += width
    dx, du = _per_ray_gradients(hs, u, k, trunk, True, gz)
    return [np.hstack(outs).astype(np.float64), dx.astype(np.float64), du, *dus]


def _wide_node(rows, dtype):
    """Operands of a field node over ``rows`` rows, one per ray, and an
    output gradient: a 51-wide x and an 8-wide u under a 4-layer 64-wide
    trunk, whose 64 x 64 layers' input gradient runs through a copy of w.T,
    a per-ray RGB head, whose first layer's does too, and two one-column
    heads."""
    rng = np.random.default_rng(47)

    def layers(*sizes):
        return [((rng.normal(size=(a, b)) / np.sqrt(a)).astype(dtype),
                 (rng.normal(size=b) * 0.1).astype(dtype))
                for a, b in zip(sizes, sizes[1:])]

    x, u = rng.normal(size=(rows, 51)), rng.normal(size=(rows, 8))
    heads = [(layers(64 + 27, 64, 3), rng.normal(size=(rows, 27)), 1),
             (layers(64, 1), None, 1), (layers(64, 1), None, 1)]
    return x, u, 1, layers(51 + 8, 64, 64, 64, 64), heads, rng.normal(size=(rows, 5))


RUN = ad.SMALL_PRODUCT // (64 * 64)    # rows per product of a 64 x 64 w.T


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("rows", [1, 2, RUN, RUN + 1, 2 * RUN + 1, ad.BLOCK, ad.BLOCK + 1,
                                  3 * ad.BLOCK + 37])
def test_mlp_value_and_input_gradients_keep_layer_by_layer_bits(rows, dtype):
    # the value and x's and the per-ray operands' gradients, byte for byte,
    # against one product over all rows per layer: the gradient's blocks,
    # the copied w.T's runs of rows, a one-row remainder merged into the run
    # before it, and a node of one row change none of their bits
    x, u, k, trunk, heads, g = _wide_node(rows, dtype)
    want = _layer_by_layer_node(x, u, k, trunk, heads, g)
    xn, un = ad.Node(x), ad.Node(u)
    node_heads = [(ls, hu if hu is None else ad.Node(hu), hk) for ls, hu, hk in heads]
    out = ad.mlp(xn, [(ad.Node(w), ad.Node(b)) for w, b in trunk], u=un, k=k,
                 heads=node_heads)
    ad.backward(ad.sum_(ad.mul(out, g)))
    got = [out.value, xn.grad, un.grad, *(hu.grad for _, hu, _ in node_heads if hu is not None)]
    _assert_same_bytes(got, [w for w in want if w is not None])


def test_graph_free_forward_holds_little_beyond_its_value():
    # a graph-free call writes its layers a span at a time: over 20 000
    # rows of the static field, its peak stays under its value plus one
    # 64-wide float32 layer over all rows (4.9 MiB)
    x, u, k, trunk, heads, _ = _desk_node("static", plain=True, rays=625)
    tracemalloc.start()
    try:
        value = ad.mlp(x, trunk, u=u, k=k, heads=heads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.shape == (20000, 5) and value.dtype == np.float64
    assert peak < value.nbytes + len(x) * 64 * 4


@pytest.mark.parametrize("kind", ["static", "latent"])
def test_mlp_reads_a_float32_plain_x_as_its_float64_source(kind):
    # a graph-free render's float32 encoding against the float64 one that
    # each block used to cast: the value and every weight's and per-ray
    # operand's gradient, byte for byte

    def run(x):
        _, u, k, trunk, heads, g = _desk_node(kind)
        out = ad.mlp(x, trunk, u=u, k=k, heads=heads)
        ad.backward(ad.sum_(ad.mul(out, g)))
        return [out.value, *(a.grad for a in _leaves(None, u, trunk, heads))]

    source = _desk_node(kind)[0].value
    want = run(source)
    got = run(source.astype(np.float32))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_cross3_and_sigmoid_keep_numpy_bits():
    rng = np.random.default_rng(5)
    for sa, sb in [((1024, 3), (1024, 3)), ((1, 3), (1024, 3)), ((1024, 3), (1, 3)),
                   ((4, 5, 3), (5, 3))]:
        a, b = ad.Node(rng.normal(size=sa)), ad.Node(rng.normal(size=sb))
        out = ad.cross3(a, b)
        g = rng.normal(size=out.shape)
        ad.backward(ad.sum_(ad.mul(out, g)))
        assert out.value.tobytes() == np.cross(a.value, b.value).tobytes()
        assert a.grad.tobytes() == ad._unbroadcast(np.cross(b.value, g), sa).tobytes()
        assert b.grad.tobytes() == ad._unbroadcast(np.cross(g, a.value), sb).tobytes()
    # ±0, subnormals, the tails where exp(-|z|) underflows, ±inf: NaN's
    # sign alone may differ
    tiny = np.finfo(np.float64).tiny
    tails = np.arange(700.0, 747.0, 0.5)
    z = np.concatenate([rng.normal(size=10 ** 6) * 30, tails, -tails,
                        [0.0, -0.0, tiny, -tiny, tiny / 2, -tiny / 2, 5e-324, -5e-324,
                         np.inf, -np.inf, np.nan, -np.nan]])
    e = np.exp(-np.abs(z))
    two_branches = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    got = ad.sigmoid(z)
    nan = np.isnan(two_branches)
    assert np.array_equal(np.isnan(got), nan) and nan.sum() == 2
    assert got[~nan].tobytes() == two_branches[~nan].tobytes()


def test_backward_rejects_nonscalar_root():
    x = ad.Node(np.zeros(3))
    with pytest.raises(ad.NonScalarRoot):
        ad.backward(x)


def test_backward_accumulates_shared_subexpressions():
    # q = (x + y) * (x + 1): dq/dx must sum both paths
    x = ad.Node(np.array(2.0))
    y = ad.Node(np.array(-4.0))
    q = ad.mul(ad.add(x, y), ad.add(x, 1.0))
    ad.backward(q)
    assert np.allclose(x.grad, (2.0 - 4.0) + (2.0 + 1.0))
    assert np.allclose(y.grad, 3.0)


FANOUT_ROWS, FANOUT_K = 2 * ad.BLOCK + 40, 8


def _fanout_leaves():
    rng = np.random.default_rng(21)
    n, rays = FANOUT_ROWS, FANOUT_ROWS // FANOUT_K
    shapes = {"x": (n, 5), "x2": (n, 6), "u": (rays, 4), "w0": (5, 6), "b0": (6,),
              "ws": (6, 1), "bs": (1,), "wc": (10, 3), "bc": (3,), "p": (n, 1)}
    return {name: ad.Node(rng.normal(size=shape)) for name, shape in shapes.items()}


def _fanout_loss(v, order):
    """A scalar over a graph whose gradients fan out three ways: one trunk
    output read by three ``mlp`` heads (two one-column heads that share a
    weight leaf, and one with a per-ray operand), by an ``add`` whose vjp
    hands the same array to both operands, and through ``reshape``,
    ``concat`` and ``narrow`` views; the leaf ``p`` is used twice. ``order``
    permutes the summed terms, and with them the order of the visits."""
    n, k = FANOUT_ROWS, FANOUT_K
    h = _stack(v["x"], [(v["w0"], v["b0"])], True)
    s1 = ad.mlp(h, [(v["ws"], v["bs"])])
    s2 = _stack(h, [(v["ws"], v["bs"])], True)
    c = ad.mlp(h, [(v["wc"], v["bc"])], u=v["u"], k=k)
    a = ad.add(h, v["x2"])                       # one array to h and x2
    j = ad.concat([a, ad.reshape(s1, (n, 1)), c], axis=1)
    top, rest = ad.narrow(j, 0, n // 2), ad.narrow(j, n // 2, n - n // 2)
    terms = [ad.sum_(ad.mul(top, top)), ad.sum_(ad.exp(ad.mul(rest, 0.1))),
             ad.sum_(ad.mul(ad.mul(s2, v["p"]), v["p"])), ad.sum_(ad.mul(a, s1)),
             ad.sum_(ad.mul(ad.reshape(c, (n // k, k, 3)), 0.5))]
    loss = terms[order[0]]
    for i in order[1:]:
        loss = ad.add(loss, terms[i])
    return loss


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (0, 1, 3, 2, 4), (1, 3, 0, 4, 2),
                                   (4, 3, 2, 1, 0)])
def test_backward_writes_into_no_gradient(order):
    # a vjp may hand back a view of its incoming gradient, which another
    # node or leaf holds, so backward sums into new arrays: every gradient a
    # vjp receives or returns keeps its bytes to the end of the pass
    leaves = _fanout_leaves()
    loss = _fanout_loss(leaves, order)
    seen = []

    def recorded(vjp):
        # called as backward would call the vjp, with its attributes
        @functools.wraps(vjp)
        def pull(g, *args, **kwargs):
            out = vjp(g, *args, **kwargs)
            seen.extend((a, a.copy()) for a in (g, out))
            return out
        return pull

    for node in ad.topo_order(loss):
        node.parents = tuple((p, recorded(vjp)) for p, vjp in node.parents)
    ad.backward(loss)
    assert seen
    for a, copy in seen:
        assert a.tobytes() == copy.tobytes()
    for name, leaf in leaves.items():
        assert leaf.grad is not None, name


def test_every_op_matches_central_differences():
    results = gc.run_op_checks(seed=1)
    failed = [(r.name, r.max_rel_err) for r in results if not r.passed]
    assert not failed, f"ops off finite differences: {failed}"


@pytest.mark.parametrize("name, seed", [("mlp_heads", 3), ("softplus", 12),
                                        ("softplus", 22), ("mlp_head", 3),
                                        ("encode_position", 7), ("encode_position", 15)])
def test_difference_quotient_rounding_fails_no_correct_gradient(name, seed,
                                                                 wrong_gradients):
    # draws whose weighted output sum cancels, so the difference quotient
    # carries rounding of eps * sum|terms| / h, and encode_position draws
    # whose eighth octave gives a central difference h^2 truncation of
    # several tolerances: correct gradients pass, and a 1 % error still
    # fails
    assert gc.check_op(name, seed=seed).passed
    with wrong_gradients():
        assert not gc.check_op(name, seed=seed).passed


@pytest.mark.parametrize("x0, kinked", [(0.4, True), (-0.4, True), (1.5, False),
                                       (-1.5, False)])
def test_kink_rule_flags_a_kink_within_the_probe_window(x0, kinked):
    # relu(x - x0) with its kink at x0 in units of h from x: flagged inside
    # (x - h, x + h), straight to either side
    h, x = gc.FD_STEP, 0.3
    f = lambda v: max(v - (x + x0 * h), 0.0) + 0.5 * v
    assert gc._kinked(f(x + h), f(x), f(x - h), gc.END_TO_END_TOL) == kinked


def test_kink_rule_passes_a_smooth_function():
    # sin(50 x): curvature 2500 sin(50 x) moves the one-sided slopes apart by
    # about 2.5e-3 h-units, far below the tolerance of the slope itself
    h = gc.FD_STEP
    f = lambda v: np.sin(50.0 * v)
    for x in np.linspace(-1.0, 1.0, 41):
        if abs(np.cos(50.0 * x)) > 0.1:
            assert not gc._kinked(f(x + h), f(x), f(x - h), gc.END_TO_END_TOL), x


@pytest.mark.parametrize("name", sorted(gc._op_cases(np.random.default_rng(0))))
def test_plain_inputs_build_no_graph(name):
    # the same arithmetic with and without a graph, bit for bit
    inputs, op = gc._op_cases(np.random.default_rng(7))[name]
    plain = op(*[x.copy() for x in inputs])
    graph = op(*[ad.Node(x.copy()) for x in inputs])
    assert type(plain) is np.ndarray
    assert isinstance(graph, ad.Node)
    assert np.array_equal(plain, graph.value)


def test_backward_keeps_only_leaf_gradients():
    store = ParamStore()
    store.add("p", np.array([0.5, -2.0, 3.0]), group="a")
    x = ad.Node(np.array([1.0, 0.25, -0.5]))
    p = store.leaf("p")
    y = ad.mul(x, p)
    z = ad.exp(y)
    root = ad.sum_(z)
    ad.backward(root)
    # interior gradients are dropped once their vjps have run
    assert y.grad is None and z.grad is None and root.grad is None
    e = np.exp(x.value * store.values["p"])
    assert np.array_equal(x.grad, e * store.values["p"])
    assert np.array_equal(p.grad, e * x.value)
    assert np.array_equal(store.grad("p"), e * x.value)


def test_frozen_group_leaf_is_a_constant():
    store = ParamStore()
    store.add("w", np.array([1.5]), group="a")
    store.add("v", np.array([2.0]), group="b")
    store.set_frozen_groups({"b"})
    assert store.leaf("v") is store.values["v"]
    assert isinstance(store.leaf("w"), ad.Node)
    ad.backward(ad.sum_(ad.mul(store.leaf("w"), store.leaf("v"))))
    assert np.array_equal(store.grad("w"), [2.0])
    assert np.array_equal(store.grad("v"), [0.0])


def test_unreached_parameter_gradient_stays_zero():
    store = ParamStore()
    store.add("used", np.array([2.0]), group="a")
    store.add("unused", np.array([5.0]), group="a")
    root = ad.sum_(ad.mul(store.leaf("used"), 3.0))
    ad.backward(root)
    assert np.allclose(store.grad("used"), 3.0)
    assert np.all(store.grad("unused") == 0.0)


def test_leaf_reuse_accumulates_through_fanout():
    store = ParamStore()
    store.add("w", np.array([1.5]), group="a")
    w = store.leaf("w")
    root = ad.sum_(ad.add(ad.mul(w, 2.0), ad.mul(w, w)))
    ad.backward(root)
    assert np.allclose(store.grad("w"), 2.0 + 2 * 1.5)


class TestAdam:
    def _store(self, value, group="g"):
        store = ParamStore()
        store.add("p", np.array(value, dtype=np.float64), group=group)
        return store

    def test_zero_gradient_is_identity(self):
        store = self._store([1.0, -2.0, 3.0])
        adam_step(store, {"g": 1e-2})
        assert np.array_equal(store.values["p"], [1.0, -2.0, 3.0])

    def test_first_step_magnitude_equals_rate(self):
        # bias correction makes the very first update exactly rate-sized
        store = self._store([0.0])
        store.leaf("p").grad = np.array([1.0])
        adam_step(store, {"g": 1e-3})
        assert store.values["p"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_frozen_group_untouched(self):
        store = self._store([4.0])
        store.leaf("p").grad = np.array([10.0])
        store.set_frozen_groups({"g"})
        before = store.values["p"].tobytes()
        adam_step(store, {"g": 1e-2})
        assert store.values["p"].tobytes() == before
        assert np.all(store.grad("p") == 0.0)  # grads still zeroed

    def test_nan_gradient_names_parameter(self):
        store = self._store([1.0])
        store.leaf("p").grad = np.array([np.nan])
        with pytest.raises(OptimError, match="'p'"):
            adam_step(store, {"g": 1e-2})

    def test_nan_gradient_moves_no_parameter(self):
        # the finite first parameter is checked and not stepped before the
        # second's NaN raises
        store = self._store([1.0])
        store.add("q", np.array([2.0]), group="g")
        store.leaf("p").grad = np.array([1.0])
        store.leaf("q").grad = np.array([np.nan])
        with pytest.raises(OptimError, match="'q'"):
            adam_step(store, {"g": 0.1})
        assert store.values["p"][0] == 1.0 and store.adam_t["p"] == 0
        assert store.adam_m["p"][0] == 0.0 and store.adam_v["p"][0] == 0.0

    def test_matches_hand_run_recurrence(self):
        store = self._store([1.0])
        m = v = 0.0
        x = 1.0
        for t in range(1, 4):
            g = 0.5 * t
            store.leaf("p").grad = np.array([g])
            adam_step(store, {"g": 1e-2})
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 1e-2 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert store.values["p"][0] == pytest.approx(x, rel=1e-12)

    def test_group_without_rate_raises(self):
        # a trainable group missing from the rates never trains at a default
        store = self._store([1.0])
        store.add("q", np.array([2.0]), group="h")
        store.leaf("q").grad = np.array([1.0])
        store.leaf("p").grad = np.array([1.0])
        with pytest.raises(KeyError, match="'h'"):
            adam_step(store, {"g": 1e-2})
        # and raises before the rated group moves
        assert store.values["p"][0] == 1.0 and store.adam_t["p"] == 0
        store.set_frozen_groups({"h"})
        adam_step(store, {"g": 1e-2})  # a frozen group needs no rate

    def test_step_leaves_every_gradient_zero(self):
        store = self._store([1.0, 2.0])
        store.add("q", np.array([3.0]), group="h")
        ad.backward(ad.sum_(ad.mul(store.leaf("p"), store.leaf("q"))))
        assert store.grad("p").any() and store.grad("q").any()
        adam_step(store, {"g": 1e-2, "h": 1e-3})
        for name in store.names():
            assert np.array_equal(store.grad(name), np.zeros_like(store.values[name]))


class TestLrSchedule:
    def test_endpoints(self):
        sched = LrSchedule(1e-4, 1e-6, 1000)
        assert sched.rate_at(0) == pytest.approx(1e-4)
        assert sched.rate_at(1000) == pytest.approx(1e-6)

    def test_geometric_midpoint(self):
        sched = LrSchedule(1e-4, 1e-6, 1000)
        assert sched.rate_at(500) == pytest.approx(1e-5, rel=1e-09)

    def test_monotone(self):
        sched = LrSchedule(1e-3, 1e-4, 100)
        rates = [sched.rate_at(s) for s in range(101)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(OptimError):
            LrSchedule(0.0, 1e-6, 10)
        with pytest.raises(OptimError):
            LrSchedule(1e-4, -1e-6, 10)
