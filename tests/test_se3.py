import math
from fractions import Fraction

import numpy as np
import pytest

from moblurf import autodiff as ad
from moblurf import se3
from moblurf.cameras import RayBatch


def random_axis_angles(n, rng, max_angle=np.pi):
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0, max_angle, size=(n, 1))
    return axes * angles


class TestExpRotation:
    def test_zero_gives_identity(self):
        assert np.array_equal(se3.exp_rotation([0, 0, 0]), np.eye(3))

    def test_quarter_turn_about_z(self):
        # oracle: rotation assembled from the equivalent quaternion
        r = se3.exp_rotation([0, 0, np.pi / 2])
        q = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
        assert np.allclose(r, se3.matrix_from_quat(q), atol=1e-12)
        assert np.allclose(r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_orthonormal_det_one_over_1000_samples(self):
        rng = np.random.default_rng(0)
        for omega in random_axis_angles(1000, rng):
            r = se3.exp_rotation(omega)
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
            assert abs(np.linalg.det(r) - 1.0) < 1e-10

    def test_inverse_composition(self):
        rng = np.random.default_rng(1)
        for omega in random_axis_angles(50, rng):
            r = se3.exp_rotation(omega) @ se3.exp_rotation(-omega)
            assert np.abs(r - np.eye(3)).max() < 1e-10


class TestTranslationMatrix:
    def test_zero_gives_identity(self):
        assert np.array_equal(se3.translation_matrix([0, 0, 0]), np.eye(3))

    def test_matches_rotation_integral(self):
        # G(omega) = integral_0^1 exp(s [omega]x) ds; Simpson quadrature oracle
        omega = np.array([0.0, 0.0, np.pi])
        n = 2000
        s = np.linspace(0, 1, n + 1)
        vals = np.stack([se3.exp_rotation(omega * si) for si in s])
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        integral = (vals * w[:, None, None]).sum(axis=0) / (3.0 * n)
        assert np.abs(se3.translation_matrix(omega) - integral).max() < 1e-10


class TestRotationCoefficients:
    # from zero through the series' range, across the switch at u = 1, into
    # the closed forms'; the closed-form derivatives of B and C once served
    # u >= 1e-12 and were off by 1e9 at 1.01e-12
    U = [0.0, 1e-12, 1.01e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.999,
         1.0, 1.001, 2.0, 4.0]

    @staticmethod
    def exact(u, m, terms=30):
        """F_m(u) = sum_n (-u)^n / (2n + m)! and its derivative in u, summed
        in exact rationals: A, B and C are F_1, F_2 and F_3."""
        x = Fraction(u)
        f = sum(Fraction((-x) ** n, math.factorial(2 * n + m)) for n in range(terms))
        df = sum(Fraction(n * (-x) ** (n - 1), -math.factorial(2 * n + m))
                 for n in range(1, terms))
        return f, df

    def test_values_and_derivatives_match_exact_series(self):
        for u in self.U:
            for m in (1, 2, 3):
                node = ad.Node(np.array([u]))
                coef = ad.rot_coefs(node)[m - 1]
                ad.backward(ad.sum_(coef))
                for got, want in zip((coef.value[0], node.grad[0]), self.exact(u, m)):
                    err = abs(Fraction(float(got)) - want) / abs(want)
                    assert err < 1e-13, (u, m, float(err))
                    if u == 0:  # 1, 1/2, 1/6 and -1/6, -1/24, -1/120, rounded once
                        assert got == float(want)


class TestWarpRay:
    def test_zero_screw_is_identity(self):
        rng = np.random.default_rng(2)
        o = rng.normal(size=(8, 3))
        d = rng.normal(size=(8, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        o2, d2 = se3.warp_ray(o, d, np.zeros((8, 3)), np.zeros((8, 3)))
        assert np.array_equal(o2, o)
        assert np.abs(d2 - d).max() < 1e-12

    def test_pure_translation_shifts_origin_only(self):
        o = np.array([[1.0, 2.0, 3.0]])
        d = np.array([[0.0, 0.0, 1.0]])
        v = np.array([[1.0, 0.0, 0.0]])
        o2, d2 = se3.warp_ray(o, d, np.zeros((1, 3)), v)
        assert np.allclose(o2, [[2.0, 2.0, 3.0]])
        assert np.abs(d2 - d).max() < 1e-12

    def test_inverse_rotation_restores_direction(self):
        rng = np.random.default_rng(3)
        omega = random_axis_angles(20, rng, max_angle=2.0)
        d = rng.normal(size=(20, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        o = rng.normal(size=(20, 3))
        o1, d1 = se3.warp_ray(o, d, omega, np.zeros((20, 3)))
        _, d2 = se3.warp_ray(o1, d1, -omega, np.zeros((20, 3)))
        assert np.abs(d2 - d).max() < 1e-10

    def test_direction_stays_unit(self):
        rng = np.random.default_rng(4)
        omega = random_axis_angles(100, rng)
        v = rng.normal(size=(100, 3))
        d = rng.normal(size=(100, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        _, d2 = se3.warp_ray(rng.normal(size=(100, 3)), d, omega, v)
        assert np.abs(np.linalg.norm(d2, axis=1) - 1.0).max() < 1e-12

    def test_node_and_array_paths_agree(self):
        rng = np.random.default_rng(5)
        o = rng.normal(size=(6, 3))
        d = rng.normal(size=(6, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        omega = random_axis_angles(6, rng, max_angle=1.0)
        v = rng.normal(size=(6, 3)) * 0.1
        o_np, d_np = se3.warp_ray(o, d, omega, v)
        o_nd, d_nd = se3.warp_ray(o, d, ad.Node(omega), ad.Node(v))
        assert np.array_equal(o_np, ad.value_of(o_nd))
        assert np.array_equal(d_np, ad.value_of(d_nd))

    @pytest.mark.parametrize("node", [False, True], ids=["plain", "node"])
    def test_ray_batch_warp_reads_omega_then_v_from_one_row(self, node):
        # RayBatch.warp takes a (B,6) screw row: the bits of warp_ray on its
        # two halves and, in the graph, the same gradient of the row
        rng = np.random.default_rng(6)
        o = rng.normal(size=(6, 3))
        d = rng.normal(size=(6, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        screw = np.hstack([random_axis_angles(6, rng, max_angle=1.0),
                           rng.normal(size=(6, 3)) * 0.1])
        row, halves = screw, [screw[:, :3], screw[:, 3:]]
        if node:
            row, halves = ad.Node(screw), [ad.Node(h) for h in halves]
        rays = RayBatch(o, d, np.zeros(6, dtype=np.int64), np.zeros((6, 2), dtype=np.int64),
                        1.0, 5.0)
        moved = rays.warp(row)
        got, ref = (moved.origins, moved.dirs), se3.warp_ray(o, d, *halves)
        for x, y in zip(got, ref):
            assert isinstance(x, ad.Node) == node
            assert ad.value_of(x).tobytes() == ad.value_of(y).tobytes()
        if node:
            weights = rng.normal(size=(2, 6, 3))
            for outs in (got, ref):
                ad.backward(ad.add(*[ad.sum_(ad.mul(x, w)) for x, w in zip(outs, weights)]))
            assert row.grad.tobytes() == np.hstack([h.grad for h in halves]).tobytes()


class TestRayBatch:
    @pytest.mark.parametrize("per_ray", [False, True], ids=["shared", "per-ray"])
    @pytest.mark.parametrize("node", [False, True], ids=["plain", "node"])
    def test_points_are_origin_plus_distance_times_direction(self, per_ray, node):
        # o + d t, ray by ray, at (k,) distances every ray shares or (B,k)
        # per ray: its bytes, and in the graph the origin and direction
        # gradients of the expression render and the ray embedding wrote out
        rng = np.random.default_rng(8)
        o, d = rng.normal(size=(2, 5, 3))
        dists = rng.uniform(1.0, 5.0, size=(5, 4) if per_ray else (4,))
        o_in, d_in = (ad.Node(o), ad.Node(d)) if node else (o, d)
        rays = RayBatch(o_in, d_in, np.arange(5), np.zeros((5, 2), dtype=np.int64), 1.0, 5.0)
        pts = rays.points(dists)
        assert isinstance(pts, ad.Node) == node
        want = o[:, None] + d[:, None] * dists[..., None]
        assert ad.value_of(pts).tobytes() == want.reshape(20, 3).tobytes()
        if node:
            o_ref, d_ref = ad.Node(o), ad.Node(d)
            ref = ad.reshape(ad.add(ad.reshape(o_ref, (5, 1, 3)),
                                    ad.mul(ad.reshape(d_ref, (5, 1, 3)),
                                           np.reshape(dists, (-1, 4, 1)))), (20, 3))
            w = rng.normal(size=(20, 3))
            for p in (pts, ref):
                ad.backward(ad.sum_(ad.mul(p, w)))
            assert o_in.grad.tobytes() == o_ref.grad.tobytes()
            assert d_in.grad.tobytes() == d_ref.grad.tobytes()
            w3 = w.reshape(5, 4, 3)
            assert np.allclose(o_in.grad, w3.sum(axis=1), rtol=1e-12, atol=1e-15)
            assert np.allclose(d_in.grad, (w3 * np.reshape(dists, (-1, 4, 1))).sum(axis=1),
                               rtol=1e-12, atol=1e-15)

    def test_concat_keeps_rows_and_passes_gradients_to_both_parts(self):
        rng = np.random.default_rng(9)
        parts = [RayBatch(ad.Node(rng.normal(size=(n, 3))), ad.Node(rng.normal(size=(n, 3))),
                          rng.integers(0, 4, size=n), rng.integers(0, 9, size=(n, 2)), 1.0, 5.0)
                 for n in (3, 2)]
        both = RayBatch.concat(parts)
        assert len(both) == 5 and (both.near, both.far) == (1.0, 5.0)
        for name in ("origins", "dirs", "t", "uv"):
            assert np.array_equal(ad.value_of(getattr(both, name)), np.concatenate(
                [ad.value_of(getattr(p, name)) for p in parts]))
        w = rng.normal(size=(2, 5, 3))
        ad.backward(ad.add(ad.sum_(ad.mul(both.origins, w[0])),
                           ad.sum_(ad.mul(both.dirs, w[1]))))
        for part, rows in zip(parts, (slice(0, 3), slice(3, 5))):
            assert np.array_equal(part.origins.grad, w[0, rows])
            assert np.array_equal(part.dirs.grad, w[1, rows])


class TestQuaternions:
    def test_roundtrip_matrix_quat_matrix(self):
        rng = np.random.default_rng(6)
        for omega in random_axis_angles(200, rng):
            r = se3.exp_rotation(omega)
            assert np.abs(se3.matrix_from_quat(se3.quat_from_matrix(r)) - r).max() < 1e-10

    def test_slerp_endpoints(self):
        q0 = se3.quat_from_matrix(se3.exp_rotation([0.3, -0.2, 0.5]))
        q1 = se3.quat_from_matrix(se3.exp_rotation([-0.1, 0.4, 0.2]))
        assert np.abs(se3.slerp(q0, q1, 0.0) - q0).max() < 1e-12
        assert np.abs(se3.slerp(q0, q1, 1.0) - q1).max() < 1e-12

    def test_slerp_midpoint_of_quarter_turn(self):
        q0 = np.array([1.0, 0, 0, 0])
        q1 = se3.quat_from_matrix(se3.exp_rotation([0, 0, np.pi / 2]))
        mid = se3.slerp(q0, q1, 0.5)
        expected = se3.quat_from_matrix(se3.exp_rotation([0, 0, np.pi / 4]))
        assert np.abs(mid - expected).max() < 1e-12

    def test_slerp_identical_endpoints(self):
        q = se3.quat_from_matrix(se3.exp_rotation([0.2, 0.1, -0.3]))
        for u in (0.0, 0.3, 0.7, 1.0):
            assert np.abs(se3.slerp(q, q, u) - q).max() < 1e-12

    def test_slerp_constant_angular_velocity(self):
        rng = np.random.default_rng(7)
        q0 = se3.quat_from_matrix(se3.exp_rotation(random_axis_angles(1, rng)[0]))
        q1 = se3.quat_from_matrix(se3.exp_rotation(random_axis_angles(1, rng)[0]))
        total = se3.quat_angle(q0, q1)
        for u in np.linspace(0, 1, 11):
            ang = se3.quat_angle(q0, se3.slerp(q0, q1, u))
            assert abs(ang - u * total) < 1e-9

    def test_average_of_copies(self):
        q = se3.quat_from_matrix(se3.exp_rotation([0.4, 0.0, 0.1]))
        assert np.abs(se3.average_quaternions([q] * 5) - q).max() < 1e-12

    def test_average_matches_slerp_midpoint(self):
        q0 = np.array([1.0, 0, 0, 0])
        q1 = se3.quat_from_matrix(se3.exp_rotation([0, 0, np.pi / 2]))
        avg = se3.average_quaternions([q0, q1])
        mid = se3.slerp(q0, q1, 0.5)
        assert np.abs(avg - mid).max() < 1e-6

    def test_average_ignores_sign_flips(self):
        q0 = se3.quat_from_matrix(se3.exp_rotation([0.1, 0.2, 0.3]))
        q1 = se3.quat_from_matrix(se3.exp_rotation([0.15, 0.18, 0.33]))
        a = se3.average_quaternions([q0, q1])
        b = se3.average_quaternions([q0, -q1])
        assert np.abs(a - b).max() < 1e-12

    def test_average_aligns_antipodal_and_rejects_zero(self):
        # q and -q are one rotation: each input is aligned to the first, so
        # the mean is q; an all-zero input has no direction and must fail
        # loudly rather than produce a junk rotation
        q = se3.quat_from_matrix(se3.exp_rotation([0.1, 0.2, 0.3]))
        assert np.abs(se3.average_quaternions([q, -q, q]) - q).max() < 1e-12
        with pytest.raises(se3.QuaternionError):
            se3.average_quaternions([np.zeros(4)])

    def test_average_rejects_empty(self):
        with pytest.raises(se3.QuaternionError):
            se3.average_quaternions([])
