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


def test_mlp_shape_error():
    x = np.zeros((2, 3))
    with pytest.raises(ad.ShapeMismatch):
        ad.mlp(np.zeros(3), [(np.zeros((3, 3)), np.zeros(3))], "relu")
    with pytest.raises(ad.ShapeMismatch):
        ad.mlp(x, [(np.zeros((2, 3)), np.zeros(3))], "relu")
    with pytest.raises(ad.ShapeMismatch, match=r"layer 0: .*\(4,\)"):
        ad.mlp(x, [(np.zeros((3, 3)), np.zeros(4))], "relu")
    with pytest.raises(ad.ShapeMismatch, match=r"layer 1: .*\(4, 2\)"):
        ad.mlp(x, [(np.zeros((3, 3)), np.zeros(3)),
                   (np.zeros((4, 2)), np.zeros(2))], "relu")
    with pytest.raises(ValueError, match="tanh"):
        ad.mlp(x, [(np.zeros((3, 3)), np.zeros(3))], "tanh")


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


def test_zero_preactivation_gets_zero_gradient():
    # the relu's kink passes no gradient
    x = ad.Node(np.array([[1.0, -1.0], [2.0, 3.0]]))
    w = ad.Node(np.array([[1.0], [1.0]]))   # row 0 sums to exactly zero
    b = ad.Node(np.zeros(1))
    ad.backward(ad.sum_(ad.mlp(x, [(w, b)], "relu", activate_output=True)))
    assert np.array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(w.grad, [[2.0], [3.0]])
    assert np.array_equal(b.grad, [1.0])


MLP_SIZES = (9, 16, 16, 3)   # two hidden layers, an RGB head's 3-wide output


def _mlp_inputs(rows, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, MLP_SIZES[0]))
    layers = [(rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in),
               rng.normal(size=fan_out) * 0.1)
              for fan_in, fan_out in zip(MLP_SIZES, MLP_SIZES[1:])]
    return x, layers, rng.normal(size=(rows, MLP_SIZES[-1]))


def _layer_by_layer(x, layers, activation, activate_output, g):
    """Output, dx, dws, dbs of the stack evaluated one layer at a time over
    all rows, with the arithmetic of separate dense and activation nodes."""
    hs, zs = [x], []
    for i, (w, b) in enumerate(layers):
        z = hs[-1] @ w
        z += b
        zs.append(z)
        acted = i < len(layers) - 1 or activate_output
        if acted and activation == "relu":
            z = np.maximum(z, 0.0)
        elif acted:
            z = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        hs.append(z)
    dws, dbs = [], []
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1 or activate_output:
            g = g * ((hs[i + 1] > 0) if activation == "relu"
                     else 1.0 / (1.0 + np.exp(-np.clip(zs[i], -500, 500))))
        dws.insert(0, hs[i].T @ g)
        dbs.insert(0, g.sum(axis=0))
        g = g @ layers[i][0].T
    return hs[-1], g, dws, dbs


def _close(a, b, rel=1e-13):
    return np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


@pytest.mark.parametrize("activation", ["relu", "softplus"])
@pytest.mark.parametrize("activate_output", [False, True])
@pytest.mark.parametrize("rows", [0, 1, ad.BLOCK, ad.BLOCK + 1, 2 * ad.BLOCK + 37])
def test_mlp_matches_layer_by_layer_reference(rows, activation, activate_output):
    x, layers, g = _mlp_inputs(rows)
    out, dx, dws, dbs = _layer_by_layer(x, layers, activation, activate_output, g)
    # rows cross block boundaries: forward and dx bit for bit, dw and db to
    # rounding of their block-by-block sums
    plain = ad.mlp(x, layers, activation, activate_output)
    assert type(plain) is np.ndarray and np.array_equal(plain, out)
    xn = ad.Node(x)
    params = [(ad.Node(w), ad.Node(b)) for w, b in layers]
    node = ad.mlp(xn, params, activation, activate_output)
    assert np.array_equal(node.value, out)
    ad.backward(ad.sum_(ad.mul(node, g)))
    assert np.array_equal(xn.grad, dx)
    for (w, b), dw, db in zip(params, dws, dbs):
        assert _close(w.grad, dw) and _close(b.grad, db)


@pytest.mark.parametrize("x_node", [False, True], ids=["plain_x", "node_x"])
@pytest.mark.parametrize("trainable", [False, True], ids=["frozen", "trainable"])
def test_mlp_gradients_reach_node_operands_only(x_node, trainable, monkeypatch):
    x, layers, g = _mlp_inputs(ad.BLOCK + 5)
    out, dx, dws, dbs = _layer_by_layer(x, layers, "relu", True, g)
    xin = ad.Node(x) if x_node else x
    params = [(ad.Node(w), ad.Node(b)) if trainable else (w, b) for w, b in layers]
    built = []
    init = ad.Node.__init__
    monkeypatch.setattr(ad.Node, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    res = ad.mlp(xin, params, "relu", True)
    if not (x_node or trainable):
        # nothing to differentiate: a plain array and no graph at all
        assert type(res) is np.ndarray and np.array_equal(res, out)
        assert not built
        return
    assert isinstance(res, ad.Node) and np.array_equal(res.value, out)
    # one parent per Node operand, none for the constants
    nodes = [p for p in (xin, *(p for pair in params for p in pair))
             if isinstance(p, ad.Node)]
    assert [p for p, _ in res.parents] == nodes
    ad.backward(ad.sum_(ad.mul(res, g)))
    if x_node:
        assert np.array_equal(xin.grad, dx)
    if trainable:
        for (w, b), dw, db in zip(params, dws, dbs):
            assert _close(w.grad, dw) and _close(b.grad, db)


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


def test_every_op_matches_central_differences():
    results = gc.run_op_checks(seed=1, trials=20)
    failed = [(r.name, r.max_rel_err) for r in results if not r.passed]
    assert not failed, f"ops off finite differences: {failed}"


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
        with pytest.raises(KeyError, match="'h'"):
            adam_step(store, {"g": 1e-2})
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
