import numpy as np
import pytest

from moblurf import autodiff as ad
from moblurf import blur
from moblurf import se3
from moblurf.cameras import RayBatch
from moblurf.fields import FieldConfig, SceneModel
from moblurf.render import render_rays


def tiny_model(n_latent=2, seed=0):
    cfg = FieldConfig(n_frames=4, n_latent=n_latent, trunk_depth=2,
                      trunk_width=16, rgb_depth=2, rgb_width=8,
                      local_depth=2, local_width=8, ray_samples=8)
    return SceneModel(cfg, np.random.default_rng(seed))


def make_rays(n=6, seed=0, near=1.0, far=5.0):
    rng = np.random.default_rng(seed)
    origins = rng.normal(size=(n, 3)) * 0.2
    pix = rng.normal(size=(n, 3)) * 0.1 + np.array([0, 0, 1.0])
    pix /= pix[:, 2:3]
    dirs = pix / np.linalg.norm(pix, axis=1, keepdims=True)
    t = rng.integers(0, 4, size=n)
    uv = rng.integers(0, 16, size=(n, 2))
    return RayBatch(origins, dirs, pix, t, uv, near, far)


class TestGmrp:
    def test_zero_table_reproduces_base_ray(self):
        model = tiny_model()
        rays = make_rays()
        for latent in blur.gmrp(model, rays):
            assert np.array_equal(ad.value_of(latent.origins), rays.origins)
            assert np.abs(ad.value_of(latent.dirs) - rays.dirs).max() < 1e-12
            assert np.array_equal(latent.t, rays.t)
            assert np.array_equal(latent.uv, rays.uv)

    def test_zero_latent_rays_gives_empty_bundle(self):
        model = tiny_model(n_latent=0)
        assert blur.gmrp(model, make_rays()) == []

    def test_matches_standalone_warp(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        table = rng.normal(size=model.store.values["screw.global"].shape) * 0.1
        model.store.values["screw.global"][:] = table
        rays = make_rays(seed=2)
        latents = blur.gmrp(model, rays)
        n_latent = model.config.n_latent
        for q, latent in enumerate(latents):
            rows = table[rays.t * n_latent + q]
            o, d = se3.warp_ray(rays.origins, rays.dirs, rows[:, :3], rows[:, 3:])
            assert np.abs(ad.value_of(latent.origins) - o).max() < 1e-15
            assert np.abs(ad.value_of(latent.dirs) - d).max() < 1e-15


class TestLorr:
    def test_zero_init_is_identity(self):
        model = tiny_model()
        rays = make_rays(seed=3)
        refined = blur.lorr(model, rays)
        assert np.array_equal(ad.value_of(refined.origins), rays.origins)
        assert np.abs(ad.value_of(refined.dirs) - rays.dirs).max() < 1e-12

    def test_matches_warp_with_predicted_screw(self):
        model = tiny_model()
        # zero-init final weights + forced bias: every ray gets this screw
        forced = np.array([0.03, -0.02, 0.05, 0.01, 0.02, -0.04])
        model.store.values["local.mlp.2.b"][:] = forced
        rays = make_rays(seed=4)
        refined = blur.lorr(model, rays)
        o, d = se3.warp_ray(rays.origins, rays.dirs,
                            np.tile(forced[:3], (len(rays), 1)),
                            np.tile(forced[3:], (len(rays), 1)))
        assert np.abs(ad.value_of(refined.origins) - o).max() < 1e-15
        assert np.abs(ad.value_of(refined.dirs) - d).max() < 1e-15

    @staticmethod
    def _count_lorr(monkeypatch):
        """Rays passed to ``blur.lorr``, counted at the function itself."""
        seen = []
        orig = blur.lorr

        def counting_lorr(model, rays):
            seen.append(len(rays))
            return orig(model, rays)

        monkeypatch.setattr(blur, "lorr", counting_lorr)
        return seen

    def test_not_invoked_for_static_rays(self, monkeypatch):
        model = tiny_model()
        rays = make_rays(seed=5)
        seen = self._count_lorr(monkeypatch)
        res = blur.blurry_render(model, rays, n_samples=4,
                                 mask_override=np.zeros(len(rays), dtype=int))
        assert res.lorr_rays == 0 and seen == []

    def test_invoked_exactly_for_dynamic_rays(self, monkeypatch):
        model = tiny_model(n_latent=3)
        rays = make_rays(n=8, seed=6)
        mask = np.array([1, 0, 1, 1, 0, 0, 0, 1])
        seen = self._count_lorr(monkeypatch)
        res = blur.blurry_render(model, rays, n_samples=4, mask_override=mask)
        assert res.lorr_rays == mask.sum() * 3
        assert sum(seen) == res.lorr_rays


class TestBlurAverage:
    def test_empty_bundle_returns_base(self):
        base = np.array([[0.2, 0.4, 0.6]])
        assert blur.blur_average(base, []) is base

    def test_two_term_mean(self):
        out = blur.blur_average(np.zeros((1, 3)), [np.ones((1, 3))])
        assert np.allclose(out, 0.5)

    def test_idempotent_on_identical_colors(self):
        c = np.array([[0.3, 0.5, 0.7]])
        out = blur.blur_average(c, [c.copy(), c.copy(), c.copy()])
        assert np.abs(out - c).max() < 1e-15

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        base = rng.random((2, 3))
        latents = [rng.random((2, 3)) for _ in range(4)]
        a = blur.blur_average(base, latents)
        b = blur.blur_average(base, latents[::-1])
        assert np.abs(a - b).max() < 1e-15

    def test_convex_hull_per_channel(self):
        rng = np.random.default_rng(8)
        base = rng.random((3, 3))
        latents = [rng.random((3, 3)) for _ in range(3)]
        out = blur.blur_average(base, latents)
        stack = np.stack([base] + latents)
        assert np.all(out >= stack.min(axis=0) - 1e-15)
        assert np.all(out <= stack.max(axis=0) + 1e-15)


class TestBlurryRender:
    def test_noop_start_matches_inference(self):
        # zero screws + zero-init local MLP: training-time blurry render and
        # the plain sharp render coincide ray for ray
        model = tiny_model()
        rays = make_rays(n=10, seed=9)
        res = blur.blurry_render(model, rays, n_samples=8, rng=None)
        sharp = render_rays(model, rays, n_samples=8, rng=None)
        for key, field in (("s", "color_static"), ("d", "color_dynamic"),
                           ("full", "color_full")):
            sharp_v = ad.value_of(getattr(sharp, field))
            blur_s = ad.value_of(res.blurry_static[key])
            blur_d = ad.value_of(res.blurry_dynamic[key])
            assert np.abs(blur_s - sharp_v[res.static_idx]).max() < 1e-12
            if len(res.dynamic_idx):
                assert np.abs(blur_d - sharp_v[res.dynamic_idx]).max() < 1e-12

    def test_hand_set_screws_match_mean_of_independent_renders(self):
        model = tiny_model(n_latent=2)
        rng = np.random.default_rng(10)
        table = rng.normal(size=model.store.values["screw.global"].shape) * 0.05
        model.store.values["screw.global"][:] = table
        rays = make_rays(n=5, seed=11)
        res = blur.blurry_render(model, rays, n_samples=8, rng=None,
                                 mask_override=np.zeros(len(rays), dtype=int))
        base = render_rays(model, rays, n_samples=8, rng=None)
        latent_results = [render_rays(model, latent, n_samples=8, rng=None)
                          for latent in blur.gmrp(model, rays)]
        for key, field in (("s", "color_static"), ("full", "color_full")):
            expected = ad.value_of(getattr(base, field)).copy()
            for lr_ in latent_results:
                expected += ad.value_of(getattr(lr_, field))
            expected /= 3.0
            got = ad.value_of(res.blurry_static[key])
            assert np.abs(got - expected[res.static_idx]).max() < 1e-12

    def test_static_branch_ignores_local_mlp(self):
        model = tiny_model()
        rays = make_rays(n=6, seed=12)
        mask = np.zeros(len(rays), dtype=int)
        res_a = blur.blurry_render(model, rays, 8, rng=None, mask_override=mask)
        model.store.values["local.mlp.2.b"][:] = 0.3  # would move rays if used
        model.store.begin_step()
        res_b = blur.blurry_render(model, rays, 8, rng=None, mask_override=mask)
        assert np.array_equal(ad.value_of(res_a.blurry_static["full"]),
                              ad.value_of(res_b.blurry_static["full"]))

    def test_zero_latent_count_passes_base_through(self):
        model = tiny_model(n_latent=0)
        rays = make_rays(n=4, seed=13)
        res = blur.blurry_render(model, rays, 8, rng=None)
        base = render_rays(model, rays, 8, rng=None)
        full = ad.value_of(base.color_full)
        assert np.array_equal(ad.value_of(res.blurry_static["full"]),
                              full[res.static_idx])
        assert np.array_equal(ad.value_of(res.blurry_dynamic["full"]),
                              full[res.dynamic_idx])
