import numpy as np
import pytest

from conftest import tiny_arch
from moblurf import autodiff as ad
from moblurf import blur
from moblurf import se3
from moblurf.cameras import RayBatch
from moblurf.fields import FieldConfig, SceneModel
from moblurf.render import (render_on_grid, render_rays, sample_along_ray,
                            sample_from_weights)
from moblurf.training import FREEZE_BRI_EVEN, FREEZE_BRI_ODD, FREEZE_MDD


def tiny_model(n_latent=2, seed=0):
    cfg = FieldConfig(**tiny_arch(n_frames=4, n_latent=n_latent))
    return SceneModel(cfg, np.random.default_rng(seed))


def make_rays(n=6, seed=0, near=1.0, far=5.0):
    rng = np.random.default_rng(seed)
    origins = rng.normal(size=(n, 3)) * 0.2
    pix = rng.normal(size=(n, 3)) * 0.1 + np.array([0, 0, 1.0])
    pix /= pix[:, 2:3]
    dirs = pix / np.linalg.norm(pix, axis=1, keepdims=True)
    t = rng.integers(0, 4, size=n)
    uv = rng.integers(0, 16, size=(n, 2))
    return RayBatch(origins, dirs, t, uv, near, far)


class TestGmrp:
    def test_zero_table_reproduces_base_ray(self):
        model = tiny_model()
        rays = make_rays()
        latent = blur.gmrp(model, rays)
        assert len(latent) == model.config.n_latent * len(rays)
        for q in range(model.config.n_latent):
            rows = slice(q * len(rays), (q + 1) * len(rays))
            assert np.array_equal(ad.value_of(latent.origins)[rows], rays.origins)
            assert np.array_equal(ad.value_of(latent.dirs)[rows], rays.dirs)
            assert np.array_equal(latent.t[rows], rays.t)
            assert np.array_equal(latent.uv[rows], rays.uv)

    def test_zero_latent_rays_gives_empty_bundle(self):
        model = tiny_model(n_latent=0)
        assert len(blur.gmrp(model, make_rays())) == 0

    def test_matches_standalone_warp(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        table = rng.normal(size=model.store.values["screw.global"].shape) * 0.1
        model.store.values["screw.global"][:] = table
        rays = make_rays(seed=2)
        latent = blur.gmrp(model, rays)
        n_latent, b = model.config.n_latent, len(rays)
        for q in range(n_latent):
            rows = table[rays.t * n_latent + q]
            o, d = se3.warp_ray(rays.origins, rays.dirs, rows[:, :3], rows[:, 3:])
            got = slice(q * b, (q + 1) * b)
            assert np.abs(ad.value_of(latent.origins)[got] - o).max() < 1e-15
            assert np.abs(ad.value_of(latent.dirs)[got] - d).max() < 1e-15


class TestLorr:
    def test_zero_init_is_identity(self):
        model = tiny_model()
        rays = make_rays(seed=3)
        refined = blur.lorr(model, rays)
        assert np.array_equal(ad.value_of(refined.origins), rays.origins)
        assert np.array_equal(ad.value_of(refined.dirs), rays.dirs)

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


def _latents(copies):
    """Copy-major (N_b*B,3) stack of per-copy (B,3) colors."""
    return np.concatenate(copies, axis=0) if copies else np.empty((0, 3))


class TestBlurAverage:
    def test_empty_bundle_returns_base(self):
        base = np.array([[0.2, 0.4, 0.6]])
        assert np.array_equal(blur.blur_average(base, _latents([])), base)

    def test_two_term_mean(self):
        out = blur.blur_average(np.zeros((1, 3)), np.ones((1, 3)))
        assert np.allclose(out, 0.5)

    def test_idempotent_on_identical_colors(self):
        c = np.array([[0.3, 0.5, 0.7]])
        out = blur.blur_average(c, _latents([c.copy(), c.copy(), c.copy()]))
        assert np.abs(out - c).max() < 1e-15

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        base = rng.random((2, 3))
        latents = [rng.random((2, 3)) for _ in range(4)]
        a = blur.blur_average(base, _latents(latents))
        b = blur.blur_average(base, _latents(latents[::-1]))
        assert np.abs(a - b).max() < 1e-15

    def test_convex_hull_per_channel(self):
        rng = np.random.default_rng(8)
        base = rng.random((3, 3))
        latents = [rng.random((3, 3)) for _ in range(3)]
        out = blur.blur_average(base, _latents(latents))
        stack = np.stack([base] + latents)
        assert np.all(out >= stack.min(axis=0) - 1e-15)
        assert np.all(out <= stack.max(axis=0) + 1e-15)


COLORS = ("color_static", "color_dynamic", "color_full")


class TestBlurryRender:
    def test_noop_start_matches_inference(self):
        # zero screws + zero-init local MLP: training-time blurry render and
        # the plain sharp render coincide ray for ray
        model = tiny_model()
        rays = make_rays(n=10, seed=9)
        mask = np.arange(len(rays)) % 2
        res = blur.blurry_render(model, rays, n_samples=8, rng=None,
                                 mask_override=mask)
        assert res.lorr_rays == mask.sum() * model.config.n_latent
        sharp = render_rays(model, rays, n_samples=8, rng=None)
        for field in COLORS:
            got = ad.value_of(getattr(res, field))
            assert np.abs(got - ad.value_of(getattr(sharp, field))).max() < 1e-12

    def test_hand_set_screws_match_mean_of_independent_renders(self):
        # each latent color is its copy's render on the base ray's proposal
        # grid, corrected by the base ray: C(N) + C_q(k) - C(k)
        model = tiny_model(n_latent=2)
        rng = np.random.default_rng(10)
        table = rng.normal(size=model.store.values["screw.global"].shape) * 0.05
        model.store.values["screw.global"][:] = table
        rays = make_rays(n=5, seed=11)
        res = blur.blurry_render(model, rays, n_samples=8, rng=None,
                                 mask_override=np.zeros(len(rays), dtype=int))
        base = render_rays(model, rays, n_samples=8, rng=None)
        _, grid = sample_from_weights(base.w_full, base.grid, blur.LATENT_SAMPLES)
        base_k = render_on_grid(model, rays, grid)
        latent = blur.gmrp(model, rays)
        copies = [render_on_grid(model, latent.select(np.arange(q * 5, q * 5 + 5)), grid)
                  for q in range(2)]
        for field in COLORS:
            sharp = ad.value_of(getattr(base, field))
            shift = sharp - ad.value_of(getattr(base_k, field))
            expected = sharp + sum(ad.value_of(getattr(r, field)) + shift for r in copies)
            assert np.abs(ad.value_of(getattr(res, field)) - expected / 3.0).max() < 1e-12

    def test_rows_stitch_static_and_refined_copies(self):
        # every row's blurry colors are the mean of its base render and its
        # N_b corrected copies, each copy rendered alone on its base ray's
        # proposal grid, the dynamic rows' copies refined through lorr
        model = tiny_model(n_latent=3)
        rng = np.random.default_rng(14)
        table = rng.normal(size=model.store.values["screw.global"].shape) * 0.05
        model.store.values["screw.global"][:] = table
        model.store.values["local.mlp.2.b"][:] = [0.03, -0.02, 0.05, 0.01, 0.02, -0.04]
        rays = make_rays(n=7, seed=15)
        mask = np.array([1, 0, 0, 1, 1, 0, 1])
        res = blur.blurry_render(model, rays, n_samples=8, rng=None, mask_override=mask)
        base = render_rays(model, rays, n_samples=8, rng=None)
        latent = blur.gmrp(model, rays)
        for row in range(len(rays)):
            one = np.array([row])
            _, grid = sample_from_weights(base.w_full[one], base.grid.select(one),
                                          blur.LATENT_SAMPLES)
            base_k = render_on_grid(model, rays.select(one), grid)
            copies = [latent.select(np.array([q * len(rays) + row])) for q in range(3)]
            if mask[row]:
                copies = [blur.lorr(model, c) for c in copies]
            renders = [render_on_grid(model, c, grid) for c in copies]
            for field in COLORS:
                sharp = ad.value_of(getattr(base, field))[row]
                shift = sharp - ad.value_of(getattr(base_k, field))[0]
                expected = sharp + sum(ad.value_of(getattr(r, field))[0] + shift
                                       for r in renders)
                got = ad.value_of(getattr(res, field))[row]
                assert np.abs(got - expected / 4.0).max() < 1e-12, (row, field)

    def test_copies_render_on_one_proposal_grid_drawn_once(self, monkeypatch):
        # one (B, k) draw, after the base render's, picks the grid that every
        # copy shares, row by row; only the N_b * B latent rays render on it
        model = tiny_model(n_latent=3)
        rays = make_rays(n=6, seed=17)
        grids = []
        orig = blur.render_on_grid

        def spy(model, rays, grid):
            grids.append(grid)
            return orig(model, rays, grid)

        monkeypatch.setattr(blur, "render_on_grid", spy)
        rng = np.random.default_rng(18)
        res = blur.blurry_render(model, rays, 8, rng=rng,
                                 mask_override=np.array([0, 1, 0, 0, 1, 1]))
        ref = np.random.default_rng(18)
        render_rays(model, rays, 8, rng=ref)
        _, own = sample_from_weights(res.base.w_full, res.base.grid, blur.LATENT_SAMPLES, ref)
        assert rng.random() == ref.random()
        (grid,) = grids
        assert grid.n_samples == blur.LATENT_SAMPLES and len(grid.dists) == 3 * 6
        for q in range(3):
            rows = slice(q * 6, q * 6 + 6)
            for name in ("edges", "dists", "deltas"):
                assert np.array_equal(getattr(grid, name)[rows], getattr(own, name))

    def test_base_ray_on_the_grid_is_gathered_not_rendered(self):
        # moved global screws and trained-looking fields: the base ray's C(k),
        # re-composited from the base render's rows at the picks, is its
        # independent render on the proposal grid, values and gradients
        model = tiny_model(n_latent=2, seed=3)
        rng = np.random.default_rng(25)
        store = model.store
        # float64 fields: the two renders evaluate the same rows in other row
        # blocks, which may round apart in the last place; 1e-12 is a float64 bound
        store.field_dtype = np.float64
        store.values["screw.global"][:] = rng.normal(0.0, 0.05, store.values["screw.global"].shape)
        for name in store.names("static") + store.names("dynamic"):
            store.values[name] += rng.normal(0.0, 0.2, store.values[name].shape)
        rays = make_rays(n=7, seed=26)
        params = store.names("static") + store.names("dynamic")
        base = render_rays(model, rays, 16, rng=np.random.default_rng(27))
        picks, grid = sample_from_weights(base.w_full, base.grid, blur.LATENT_SAMPLES,
                                          np.random.default_rng(28))
        assert np.any(np.diff(picks, axis=1) == 0)      # some segment picked twice

        def colors_and_grads(render):
            store.begin_step()
            res = render()
            ad.backward(ad.sum_(ad.mul(res.color_full, res.color_dynamic)))
            return ([ad.value_of(getattr(res, f)) for f in COLORS],
                    [store.grad(n).copy() for n in params])

        got, got_grads = colors_and_grads(lambda: render_rays(
            model, rays, 16, rng=np.random.default_rng(27)).at(picks, grid))
        want, want_grads = colors_and_grads(lambda: render_on_grid(model, rays, grid))
        for field, a, b in zip(COLORS, got, want):
            assert np.abs(a - b).max() < 1e-12, field
        assert all(np.abs(b).max() > 0 for b in want_grads)
        for name, a, b in zip(params, got_grads, want_grads):
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0), name

    def test_one_lorr_call_over_all_copies(self, monkeypatch):
        model = tiny_model(n_latent=3)
        rays = make_rays(n=8, seed=16)
        mask = np.array([0, 1, 1, 0, 0, 1, 0, 0])
        seen = TestLorr._count_lorr(monkeypatch)
        res = blur.blurry_render(model, rays, n_samples=4, mask_override=mask)
        assert seen == [mask.sum() * 3] and res.lorr_rays == mask.sum() * 3

    def test_static_branch_ignores_local_mlp(self):
        model = tiny_model()
        rays = make_rays(n=6, seed=12)
        mask = np.zeros(len(rays), dtype=int)
        res_a = blur.blurry_render(model, rays, 8, rng=None, mask_override=mask)
        model.store.values["local.mlp.2.b"][:] = 0.3  # would move rays if used
        model.store.begin_step()
        res_b = blur.blurry_render(model, rays, 8, rng=None, mask_override=mask)
        for field in COLORS:
            assert np.array_equal(ad.value_of(getattr(res_a, field)),
                                  ad.value_of(getattr(res_b, field)))

    def test_zero_latent_count_passes_base_through(self):
        model = tiny_model(n_latent=0)
        rays = make_rays(n=4, seed=13)
        res = blur.blurry_render(model, rays, 8, rng=None)
        base = render_rays(model, rays, 8, rng=None)
        assert res.lorr_rays == 0
        for field in COLORS:
            assert np.array_equal(ad.value_of(getattr(res, field)),
                                  ad.value_of(getattr(base, field)))
        assert np.array_equal(ad.value_of(res.p_st_samples),
                              ad.value_of(base.p_st_samples))

    def test_zero_latent_count_renders_and_draws_nothing_more(self, monkeypatch):
        model = tiny_model(n_latent=0)
        rays = make_rays(n=4, seed=19)
        calls = []
        monkeypatch.setattr(blur, "render_on_grid",
                            lambda *a: calls.append(a))
        rng, ref = np.random.default_rng(20), np.random.default_rng(20)
        blur.blurry_render(model, rays, 8, rng=rng)
        render_rays(model, rays, 8, rng=ref)
        assert calls == [] and rng.random() == ref.random()

    def test_staticness_term_reads_the_base_samples(self):
        model = tiny_model(n_latent=2)
        rays = make_rays(n=5, seed=21)
        res = blur.blurry_render(model, rays, 8, rng=None)
        assert res.p_st_samples is res.base.p_st_samples


class TestFrozenDynamicNet:
    """A frozen dynamic net sees the sample points' values; the outputs
    whose gradient that would cut refuse to build."""

    def _render(self, frozen, moving=True):
        model = tiny_model()
        model.store.set_frozen_groups(frozen)
        rays = make_rays(n=5, seed=23)
        if moving:
            rays.origins = ad.Node(rays.origins)
        grid = sample_along_ray(rays.near, rays.far, 8, len(rays), np.random.default_rng(24))
        return render_on_grid(model, rays, grid), rays

    def test_moving_rays_refuse_dynamic_outputs(self):
        res, rays = self._render(FREEZE_BRI_EVEN)
        for name in ("color_dynamic", "color_full", "kappa_star", "weights_dynamic"):
            with pytest.raises(RuntimeError, match="frozen dynamic net"):
                getattr(res, name)
        # what BRI-even reads still builds, its gradient reaching the rays
        assert np.all(np.isfinite(res.p_dy))
        ad.backward(ad.sum_(res.color_static))
        assert np.abs(rays.origins.grad).max() > 0

    def test_fixed_rays_read_every_output(self):
        res, _ = self._render(FREEZE_BRI_EVEN, moving=False)
        for name in ("color_dynamic", "color_full", "kappa_star"):
            assert np.all(np.isfinite(ad.value_of(getattr(res, name))))

    @pytest.mark.parametrize("frozen", [FREEZE_BRI_ODD, FREEZE_MDD])
    def test_trained_dynamic_net_passes_the_rays_gradient(self, frozen):
        for name in ("color_dynamic", "color_full", "kappa_star"):
            res, rays = self._render(frozen)
            out = getattr(res, name)
            ad.backward(ad.sum_(ad.mul(out, out)))
            assert np.abs(rays.origins.grad).max() > 0, name
