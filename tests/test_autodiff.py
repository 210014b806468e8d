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


def test_linear_shape_error():
    with pytest.raises(ad.ShapeMismatch):
        ad.linear(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ad.ShapeMismatch, match=r"\(4,\)"):
        ad.linear(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros(4))


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
    # the relu's kink passes no gradient, fused into a layer or not
    x = ad.Node(np.array([[1.0, -1.0], [2.0, 3.0]]))
    w = ad.Node(np.array([[1.0], [1.0]]))   # row 0 sums to exactly zero
    b = ad.Node(np.zeros(1))
    ad.backward(ad.sum_(ad.linear(x, w, b, relu=True)))
    assert np.array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(w.grad, [[2.0], [3.0]])
    assert np.array_equal(b.grad, [1.0])
    a = ad.Node(np.array([-1.0, 0.0, 2.0]))
    ad.backward(ad.sum_(ad.relu(a)))
    assert np.array_equal(a.grad, [0.0, 0.0, 1.0])


def test_linear_matches_unfused_arithmetic():
    rng = np.random.default_rng(4)
    x, w, b = rng.normal(size=(7, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)
    assert np.array_equal(ad.linear(x, w, b), x @ w + b)
    assert np.array_equal(ad.linear(x, w, b, relu=True), np.maximum(x @ w + b, 0.0))
    node = ad.linear(ad.Node(x), w, b, relu=True)
    assert np.array_equal(node.value, np.maximum(x @ w + b, 0.0))


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
    assert np.array_equal(store.grads["p"], e * x.value)


def test_frozen_group_leaf_is_a_constant():
    store = ParamStore()
    store.add("w", np.array([1.5]), group="a")
    store.add("v", np.array([2.0]), group="b")
    store.set_frozen_groups({"b"})
    assert store.leaf("v") is store.values["v"]
    assert isinstance(store.leaf("w"), ad.Node)
    ad.backward(ad.sum_(ad.mul(store.leaf("w"), store.leaf("v"))))
    assert np.array_equal(store.grads["w"], [2.0])
    assert np.array_equal(store.grads["v"], [0.0])


def test_unreached_parameter_gradient_stays_zero():
    store = ParamStore()
    store.add("used", np.array([2.0]), group="a")
    store.add("unused", np.array([5.0]), group="a")
    root = ad.sum_(ad.mul(store.leaf("used"), 3.0))
    ad.backward(root)
    assert np.allclose(store.grads["used"], 3.0)
    assert np.all(store.grads["unused"] == 0.0)


def test_leaf_reuse_accumulates_through_fanout():
    store = ParamStore()
    store.add("w", np.array([1.5]), group="a")
    w = store.leaf("w")
    root = ad.sum_(ad.add(ad.mul(w, 2.0), ad.mul(w, w)))
    ad.backward(root)
    assert np.allclose(store.grads["w"], 2.0 + 2 * 1.5)


class TestAdam:
    def _store(self, value, group="g"):
        store = ParamStore()
        store.add("p", np.array(value, dtype=np.float64), group=group)
        return store

    def test_zero_gradient_is_identity(self):
        store = self._store([1.0, -2.0, 3.0])
        adam_step(store, rate=1e-2)
        assert np.array_equal(store.values["p"], [1.0, -2.0, 3.0])

    def test_first_step_magnitude_equals_rate(self):
        # bias correction makes the very first update exactly rate-sized
        store = self._store([0.0])
        store.grads["p"] = np.array([1.0])
        adam_step(store, rate=1e-3)
        assert store.values["p"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_frozen_group_untouched(self):
        store = self._store([4.0])
        store.grads["p"] = np.array([10.0])
        store.set_frozen_groups({"g"})
        before = store.values["p"].tobytes()
        adam_step(store, rate=1e-2)
        assert store.values["p"].tobytes() == before
        assert np.all(store.grads["p"] == 0.0)  # grads still zeroed

    def test_nan_gradient_names_parameter(self):
        store = self._store([1.0])
        store.grads["p"] = np.array([np.nan])
        with pytest.raises(OptimError, match="'p'"):
            adam_step(store, rate=1e-2)

    def test_matches_hand_run_recurrence(self):
        store = self._store([1.0])
        m = v = 0.0
        x = 1.0
        for t in range(1, 4):
            g = 0.5 * t
            store.grads["p"] = np.array([g])
            adam_step(store, rate=1e-2)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 1e-2 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert store.values["p"][0] == pytest.approx(x, rel=1e-12)


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
