import numpy as np
import pytest

from moblurf import autodiff as ad
from moblurf import losses as L
from moblurf.config import TrainConfig
from moblurf.cameras import CameraPose, frame_pixel_grid, rays_for_pixels


class TestPhotometric:
    def test_perfect_match_is_zero(self):
        c = np.random.default_rng(0).random((5, 3))
        assert float(ad.value_of(L.photometric(c, c))) == 0.0

    def test_unit_error_per_channel(self):
        out = L.photometric(np.zeros((1, 3)), np.ones((1, 3)))
        assert float(ad.value_of(out)) == pytest.approx(3.0)

    def test_batch_mean_of_known_pairs(self):
        rendered = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
        target = np.array([[0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
        expected = (0.25 + 0.25) / 2.0
        assert float(ad.value_of(L.photometric(rendered, target))) == pytest.approx(expected)


class TestMaskedPhotometric:
    def test_fully_masked_batch_is_zero(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((4, 3)), rng.random((4, 3))
        out = L.photometric(a, b, np.ones(4))
        assert float(ad.value_of(out)) == 0.0

    def test_unmasked_equals_photometric(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((4, 3)), rng.random((4, 3))
        assert float(ad.value_of(L.photometric(a, b, np.zeros(4)))) == \
            pytest.approx(float(ad.value_of(L.photometric(a, b))))

    def test_mixed_mask_hand_sum(self):
        rendered = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.5, 0.5, 0.5]])
        target = np.zeros((4, 3))
        mask = np.array([0, 1, 0, 1])
        expected = (1.0 + 0.0 + 1.0 + 0.0) / 4.0
        out = L.photometric(rendered, target, mask)
        assert float(ad.value_of(out)) == pytest.approx(expected)

    def test_never_exceeds_unmasked(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.random((6, 3)), rng.random((6, 3))
            mask = rng.integers(0, 2, size=6)
            assert float(ad.value_of(L.photometric(a, b, mask))) <= \
                float(ad.value_of(L.photometric(a, b))) + 1e-15

    def test_zero_mask_keeps_every_bit_of_value_and_gradient(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((6, 3)), rng.random((6, 3))
        runs = []
        for mask in (None, np.zeros(6)):
            rendered = ad.Node(a)
            out = L.photometric(rendered, b) if mask is None else L.photometric(rendered, b, mask)
            ad.backward(out)
            runs.append((ad.value_of(out).tobytes(), rendered.grad.tobytes()))
        assert runs[0] == runs[1]


# the loss weights of the default training configuration
LAMBDA_SM = TrainConfig.lambda_sm
LAMBDA_LG = TrainConfig.lambda_lg


class TestStaticnessMax:
    def test_probability_one_limit(self):
        out = L.staticness_max(np.full(8, 1.0 - 1e-12), LAMBDA_SM)
        assert float(ad.value_of(out)) < 1e-10

    def test_inverse_e_gives_lambda(self):
        out = L.staticness_max(np.full(4, np.exp(-1.0)), LAMBDA_SM)
        assert float(ad.value_of(out)) == pytest.approx(LAMBDA_SM)

    def test_hand_mixed_values(self):
        out = L.staticness_max(np.array([0.5, 0.25]), LAMBDA_SM)
        expected = LAMBDA_SM * (np.log(2) + np.log(4)) / 2.0
        assert float(ad.value_of(out)) == pytest.approx(expected, rel=1e-12)

    def test_admits_one_and_rejects_zero_or_above_one(self):
        # a saturated sigmoid gives exactly 1: the term is 0 there
        out = L.staticness_max(np.array([1.0, 1.0]), LAMBDA_SM)
        assert float(ad.value_of(out)) == 0.0
        for bad in ([0.0, 0.5], [0.5, 1.0 + 1e-12], [-0.1, 1.0]):
            with pytest.raises(ValueError):
                L.staticness_max(np.array(bad), LAMBDA_SM)

    def test_saturated_logit_backpropagates_finite_gradients(self):
        # sigmoid(40) rounds to 1.0: the loss and its logit gradient stay finite
        logit = ad.Node(np.array([[40.0, 38.0], [0.5, -2.0]]))
        p_st = ad.sigmoid(logit)
        assert np.all(ad.value_of(p_st)[0] == 1.0)
        ad.backward(L.staticness_max(p_st, LAMBDA_SM))
        assert np.all(np.isfinite(logit.grad))
        assert np.all(logit.grad[0] == 0.0) and np.all(logit.grad[1] < 0.0)

    def test_gradient_pushes_probability_up(self):
        for p in (0.05, 0.3, 0.6, 0.95):
            node = ad.Node(np.array([p]))
            ad.backward(L.staticness_max(node, LAMBDA_SM))
            assert node.grad[0] < 0.0  # decreasing loss raises p_st


def pinhole_setup(size=16, depth=4.0):
    pose = CameraPose(np.eye(3), np.zeros(3), fx=float(size), fy=float(size),
                      cx=size / 2.0, cy=size / 2.0)
    uv = frame_pixel_grid(size, size)
    origins, dirs, pix = rays_for_pixels(pose, uv)
    return size, uv, origins, dirs, pix


class TestLocalGeometryUnit:
    def _triples(self, size, arr2d):
        """(value at p, right neighbor, down neighbor) over the inner grid."""
        a = arr2d.reshape(size, size, -1).squeeze()
        return a[:-1, :-1], a[:-1, 1:], a[1:, :-1]

    def test_fronto_parallel_plane_gives_z_normal(self):
        size, uv, origins, dirs, pix = pinhole_setup()
        depth = np.full(size * size, 4.0)
        o3 = [x.reshape(-1, 3) for x in self._triples(size, origins)]
        p3 = [x.reshape(-1, 3) for x in self._triples(size, pix)]
        d3 = [x.reshape(-1) for x in self._triples(size, depth)]
        g, ok = L.local_geometry_unit(o3, p3, d3)
        assert ok.all()
        assert np.abs(np.abs(g[:, 2]) - 1.0).max() < 1e-6
        assert np.abs(g[:, :2]).max() < 1e-6

    def test_scale_invariance_is_exact(self):
        size, uv, origins, dirs, pix = pinhole_setup()
        rng = np.random.default_rng(4)
        depth = 3.0 + rng.random(size * size)
        o3 = [x.reshape(-1, 3) for x in self._triples(size, origins)]
        p3 = [x.reshape(-1, 3) for x in self._triples(size, pix)]
        for a in (0.5, 2.0, 7.0):
            d3 = [x.reshape(-1) for x in self._triples(size, depth)]
            d3a = [a * d for d in d3]
            g, ok = L.local_geometry_unit(o3, p3, d3)
            ga, oka = L.local_geometry_unit(o3, p3, d3a)
            assert np.array_equal(ok, oka)
            assert np.abs(g[ok] - ga[ok]).max() < 1e-9

    def test_collinear_differences_flag_degenerate(self):
        # all three surface points on one line -> zero cross product
        o = [np.zeros((1, 3))] * 3
        d = [np.array([[0.0, 0, 1]]), np.array([[0.0, 0, 1]]), np.array([[0.0, 0, 1]])]
        s = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        g, ok = L.local_geometry_unit(o, d, s)
        assert not ok.any()
        assert np.all(g == 0.0)


class TestLgLoss:
    def _unit_crosses(self, vecs):
        crosses = np.asarray(vecs, dtype=np.float64)
        ok = np.ones(len(crosses), dtype=bool)
        return crosses, ok

    def test_equal_vectors_zero(self):
        cr, ok = self._unit_crosses([[0, 0, 2.0]])
        out = L.lg_loss(cr, ok, cr.copy(), ok.copy(), n_pixels=1, lam=LAMBDA_LG)
        assert float(ad.value_of(out)) == pytest.approx(0.0)

    def test_antipodal_vectors(self):
        a, ok = self._unit_crosses([[0, 0, 2.0]])
        b, _ = self._unit_crosses([[0, 0, -3.0]])
        out = L.lg_loss(a, ok, b, ok.copy(), n_pixels=1, lam=LAMBDA_LG)
        assert float(ad.value_of(out)) == pytest.approx(LAMBDA_LG * 4.0)

    def test_orthogonal_unit_vectors(self):
        a, ok = self._unit_crosses([[5.0, 0, 0]])
        b, _ = self._unit_crosses([[0, 0.1, 0]])
        out = L.lg_loss(a, ok, b, ok.copy(), n_pixels=1, lam=LAMBDA_LG)
        assert float(ad.value_of(out)) == pytest.approx(LAMBDA_LG * 2.0)

    def test_degenerate_pixels_contribute_zero(self):
        a = np.array([[0, 0, 1.0], [1.0, 0, 0]])
        b = np.array([[0, 0, 1.0], [0, 1.0, 0]])
        ok_a = np.array([True, False])  # second pixel degenerate on one side
        ok_b = np.array([True, True])
        out = L.lg_loss(a, ok_a, b, ok_b, n_pixels=2, lam=LAMBDA_LG)
        assert float(ad.value_of(out)) == pytest.approx(0.0)

    def test_all_degenerate_returns_zero_in_graph(self):
        a = ad.Node(np.array([[0.0, 0, 1.0]]))
        ok = np.array([False])
        out = L.lg_loss(a, ok, np.array([[0.0, 0, 1.0]]), ok, n_pixels=1, lam=LAMBDA_LG)
        assert float(ad.value_of(out)) == 0.0
        ad.backward(out)  # must be differentiable even in the empty case
