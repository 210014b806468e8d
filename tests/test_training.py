import numpy as np
import pytest

from moblurf import autodiff as ad
from moblurf import blur, se3, training
from moblurf import losses as L
from moblurf.cameras import rays_for_pixels
from moblurf.config import resolve_config
from moblurf.data import synthesize_dataset
from moblurf.fields import load_checkpoint, save_checkpoint
from moblurf.render import sample_along_ray
from moblurf.scene import build_preset, moving_quad_scene
from moblurf.training import (FREEZE_BRI_EVEN, FREEZE_BRI_ODD, FREEZE_MDD,
                              NumericalError, Trainer)
from test_autodiff import reference_backward


@pytest.fixture(scope="module")
def tiny_dataset():
    return synthesize_dataset(moving_quad_scene(size=24, n_frames=5), seed=3,
                              preset_name="train-test")


def tiny_trainer(dataset, seed=0, **overrides):
    base = dict(seed=seed, batch_size=24, n_samples=8, n_latent=2,
                trunk_depth=2, trunk_width=16, rgb_width=8,
                local_depth=2, local_width=8, ray_samples=8,
                bri_iters=6, mdd_iters=4, debug_freeze_check=True,
                log_every=2)
    base.update(overrides)
    return Trainer(resolve_config("desk", overrides=base), dataset)


class TestInterleaveContract:
    def test_even_steps_freeze_dynamic_and_local(self, tiny_dataset):
        tr = tiny_trainer(tiny_dataset)
        store = tr.model.store
        for it in (0, 2, 4):
            before = {g: store.checksum(g) for g in
                      ("dynamic", "local", "screw_global")}
            bd = tr.bri_step(it)
            for g, digest in before.items():
                assert store.checksum(g) == digest, f"group {g} moved on even step"
            # even branch carries only the masked static loss
            assert bd.photo_dynamic == 0.0 and bd.photo_full == 0.0
            assert bd.sm == 0.0 and bd.lg == 0.0

    def test_odd_steps_freeze_all_screws(self, tiny_dataset):
        tr = tiny_trainer(tiny_dataset)
        store = tr.model.store
        tr.bri_step(0)
        for it in (1, 3, 5):
            before = {g: store.checksum(g) for g in
                      ("screw_base", "screw_global", "local")}
            tr.bri_step(it)
            for g, digest in before.items():
                assert store.checksum(g) == digest, f"group {g} moved on odd step"

    def test_even_steps_update_static_and_base_screws(self, tiny_dataset):
        tr = tiny_trainer(tiny_dataset)
        store = tr.model.store
        before_static = store.checksum("static")
        before_screw = store.checksum("screw_base")
        tr.bri_step(0)
        assert store.checksum("static") != before_static
        assert store.checksum("screw_base") != before_screw

    def test_mdd_never_touches_base_screws(self, tiny_dataset):
        tr = tiny_trainer(tiny_dataset)
        for it in range(4):
            tr.bri_step(it)
        digest = tr.model.store.checksum("screw_base")
        for it in range(4):
            tr.mdd_step(it)
        assert tr.model.store.checksum("screw_base") == digest

    @pytest.mark.parametrize("kind", ["bri_even", "bri_odd", "mdd"])
    def test_frozen_base_screws_get_no_gradient(self, tiny_dataset, kind):
        # the freeze set alone keeps the base screws out of the graph
        tr = tiny_trainer(tiny_dataset)
        store = tr.model.store
        store.values["screw.base"][:] = np.random.default_rng(4).normal(
            0.0, 0.02, size=store.values["screw.base"].shape)
        frozen, compute = {"bri_even": (FREEZE_BRI_EVEN, tr.compute_bri_even_loss),
                           "bri_odd": (FREEZE_BRI_ODD, tr.compute_bri_odd_loss),
                           "mdd": (FREEZE_MDD, tr.compute_mdd_loss)}[kind]
        store.set_frozen_groups(frozen)
        store.begin_step()
        batch = tr.sample_batch()
        loss, _ = compute(batch, rng=None)
        assert isinstance(store.leaf("screw.base"), np.ndarray) == (kind != "bri_even")
        ad.backward(loss)
        assert store.grad("screw.base").any() == (kind == "bri_even")

    def test_freeze_sets_partition_all_groups(self):
        assert FREEZE_BRI_EVEN | {"static", "screw_base"} == \
            {"static", "dynamic", "local", "screw_base", "screw_global"}
        assert FREEZE_BRI_ODD | {"static", "dynamic"} == \
            {"static", "dynamic", "local", "screw_base", "screw_global"}
        assert FREEZE_MDD == {"screw_base"}


class TestDeterminism:
    def test_same_seed_same_trajectory(self, tiny_dataset):
        tr1 = tiny_trainer(tiny_dataset, seed=7)
        tr2 = tiny_trainer(tiny_dataset, seed=7)
        for it in range(4):
            tr1.bri_step(it)
            tr2.bri_step(it)
        for it in range(2):
            tr1.mdd_step(it)
            tr2.mdd_step(it)
        assert tr1.model.store.checksum() == tr2.model.store.checksum()

    def test_different_seed_diverges(self, tiny_dataset):
        tr1 = tiny_trainer(tiny_dataset, seed=1)
        tr2 = tiny_trainer(tiny_dataset, seed=2)
        tr1.bri_step(0)
        tr2.bri_step(0)
        assert tr1.model.store.checksum() != tr2.model.store.checksum()


class TestNoOpStart:
    def test_first_mdd_loss_matches_bri_odd_loss(self, tiny_dataset):
        # with zero screw tables and the zero-init refinement MLP, the blur
        # model is a no-op: the MDD loss on a batch equals the BRI odd loss
        tr = tiny_trainer(tiny_dataset, lg_dynamic_only_mdd=False)
        for it in range(4):
            tr.bri_step(it)
        batch = tr.sample_batch()
        tr.model.store.begin_step()
        loss_bri, _ = tr.compute_bri_odd_loss(batch, rng=None)
        tr.model.store.begin_step()
        loss_mdd, _ = tr.compute_mdd_loss(batch, rng=None)
        assert float(ad.value_of(loss_mdd)) == pytest.approx(
            float(ad.value_of(loss_bri)), abs=1e-9)

    def test_masked_out_batch_gives_local_mlp_zero_gradient(self, tiny_dataset):
        tr = tiny_trainer(tiny_dataset)
        store = tr.model.store
        batch = tr.sample_batch()
        store.set_frozen_groups(FREEZE_MDD)
        store.begin_step()
        base = tr.warp_base(batch.rays)
        res = blur.blurry_render(tr.model, base, tr.config.n_samples, rng=None,
                                 mask_override=np.zeros(len(batch.rays), dtype=int))
        loss = ad.sum_(ad.mul(res.color_full, 1.0))
        ad.backward(loss)
        assert res.lorr_rays == 0
        for name in store.names("local"):
            assert np.all(store.grad(name) == 0.0)


def lg_terms_every_neighbour(self, batch, sharp, supervise, base_rays, rng):
    """``Trainer._lg_terms`` rendering every neighbour and masking the loss
    to the supervised pixels afterwards: the subset must match it."""
    k = batch.lg_count
    if k == 0 or not supervise.any():
        return None
    kappa_primary = sharp.kappa_star
    nb = self.warp_base(batch.neighbors)
    kappa_n = training.render_kappa(self.model, nb, sample_along_ray(
        nb.near, nb.far, self.config.n_samples, 2 * k, rng))
    rows = [[ad.narrow(x, s, k, axis=0) for x in (r.origins, r.dirs, kap)]
            for r, kap, s in ((base_rays, kappa_primary, 0), (nb, kappa_n, 0),
                              (nb, kappa_n, k))]
    cr_pred, ok_pred = L.local_geometry_cross(
        *[L.surface_points(o, d, kap) for o, d, kap in rows])
    cr_true, ok_true = L.local_geometry_cross(
        *[L.surface_points(ad.value_of(o), ad.value_of(d), dist)
          for (o, d, _), dist in zip(rows, batch.pdist)])
    return L.lg_loss(cr_pred, ok_pred & supervise, cr_true, ok_true, n_pixels=k,
                     lam=self.config.lambda_lg)


def _mdd_gradients(tr, batch, mask, rng_state, backward):
    """Loss value, every parameter gradient and the RNG state after one MDD
    forward and backward pass from ``rng_state``."""
    store = tr.model.store
    store.set_frozen_groups(FREEZE_MDD)
    store.begin_step()
    tr.rng.bit_generator.state = rng_state
    loss, _ = tr.compute_mdd_loss(batch, tr.rng, mask_override=mask)
    backward(loss)
    grads = {n: store.grad(n).copy() for n in store.values}
    return float(ad.value_of(loss)), grads, tr.rng.bit_generator.state


class TestLocalGeometrySubset:
    def test_subset_matches_every_neighbour_rendered(self, tiny_dataset, monkeypatch):
        tr = tiny_trainer(tiny_dataset)
        for it in range(2):
            tr.bri_step(it)
        batch = tr.sample_batch()
        mask = np.arange(len(batch.rays)) % 2    # half the lg pixels supervised
        rendered = []
        kappa = training.render_kappa
        monkeypatch.setattr(training, "render_kappa",
                            lambda model, rays, grid: rendered.append(len(rays))
                            or kappa(model, rays, grid))
        state = tr.rng.bit_generator.state
        loss, grads, after = _mdd_gradients(tr, batch, mask, state, ad.backward)
        m = int(mask[:batch.lg_count].sum())
        assert rendered == [2 * m] and 0 < m < batch.lg_count
        monkeypatch.setattr(Trainer, "_lg_terms", lg_terms_every_neighbour)
        ref_loss, ref_grads, ref_after = _mdd_gradients(tr, batch, mask, state,
                                                        ad.backward)
        assert rendered == [2 * m, 2 * batch.lg_count]
        assert after == ref_after
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name, g in ref_grads.items():
            assert np.linalg.norm(grads[name] - g) <= 1e-12 * np.linalg.norm(g), name

    def test_all_supervised_renders_every_neighbour(self, tiny_dataset, monkeypatch):
        # BRI-odd supervises every lg pixel: the same path as rendering all
        tr = tiny_trainer(tiny_dataset)
        batch = tr.sample_batch()
        mask = np.ones(len(batch.rays), dtype=np.int64)
        state = tr.rng.bit_generator.state
        loss, grads, after = _mdd_gradients(tr, batch, mask, state, ad.backward)
        monkeypatch.setattr(Trainer, "_lg_terms", lg_terms_every_neighbour)
        ref = _mdd_gradients(tr, batch, mask, state, ad.backward)
        assert (loss, after) == (ref[0], ref[2])
        for name, g in ref[1].items():
            assert np.array_equal(grads[name], g), name


def test_pseudo_depth_is_a_distance_along_the_unit_rays(tiny_dataset):
    # a pixel at camera depth D lies at origin + D * pix_dir; the batch gives
    # it as a distance along the unit ray, which stays right through a warp
    tr = tiny_trainer(tiny_dataset)
    ds = tr.dataset
    batch = tr.sample_batch()
    k = batch.lg_count
    t, (u, v) = batch.rays.t[:k], batch.rays.uv[:k].T
    pixels = [(u, v), (u + 1, v), (u, v + 1)]
    rays = [batch.rays.select(np.arange(k)),
            batch.neighbors.select(np.arange(k)),
            batch.neighbors.select(np.arange(k, 2 * k))]
    screws = np.random.default_rng(4).normal(0.0, 0.1, size=(ds.n_frames, 6))
    for (pu, pv), r, dist in zip(pixels, rays, batch.pdist):
        for i in range(k):
            pose = ds.poses_corrupt[t[i]]
            o, _, pix = rays_for_pixels(pose, np.array([[pu[i], pv[i]]]))
            point = o[0] + ds.pseudo_depth[t[i], pv[i], pu[i]] * pix[0]
            assert np.allclose(r.origins[i] + dist[i] * r.dirs[i], point,
                               rtol=0, atol=1e-12)
        w = r.warp(screws[t, :3], screws[t, 3:])
        for i in range(k):
            omega, shift = screws[t[i], :3], screws[t[i], 3:]
            moved = (se3.exp_rotation(omega) @ (r.origins[i] + dist[i] * r.dirs[i])
                     + se3.translation_matrix(omega) @ shift)
            assert np.allclose(w.origins[i] + dist[i] * w.dirs[i], moved,
                               rtol=0, atol=1e-12)


def test_desk_mdd_step_gradients_match_allocating_backward(monkeypatch):
    # one desk-sized MDD step on moving-quad-64 with the true motion mask,
    # rendering every lg neighbour as before the subset: in-place sums give
    # every gradient of the always-allocating backward bit for bit
    monkeypatch.setattr(Trainer, "_lg_terms", lg_terms_every_neighbour)
    ds = synthesize_dataset(build_preset("moving-quad-64"), seed=3,
                            preset_name="moving-quad-64")
    tr = Trainer(resolve_config("desk", overrides={"seed": 3}), ds)
    batch = tr.sample_batch()
    rays = batch.rays
    mask = ds.mask_true[rays.t, rays.uv[:, 1], rays.uv[:, 0]].astype(np.int64)
    state = tr.rng.bit_generator.state
    loss, grads, after = _mdd_gradients(tr, batch, mask, state, ad.backward)
    ref = _mdd_gradients(tr, batch, mask, state, reference_backward)
    assert (loss, after) == (ref[0], ref[2])
    assert grads.keys() == ref[1].keys()
    for name, g in ref[1].items():
        assert np.array_equal(grads[name], g), name


def test_mdd_step_builds_only_nodes_its_loss_reaches(tiny_dataset, monkeypatch):
    # every node an MDD step builds, parameter leaves included, is one its
    # backward visits: the latent bundle's expected distance, which no loss
    # term reads, is not built
    tr = tiny_trainer(tiny_dataset)
    batch = tr.sample_batch()
    built = []
    init = ad.Node.__init__
    monkeypatch.setattr(ad.Node, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    # LORR refining half the rays and half the lg pixels supervised, then
    # every ray static: no lg pixel supervised, so the base render's depth
    # is not built either
    for mask in (np.arange(len(batch.rays)) % 2, np.zeros(len(batch.rays), int)):
        built.clear()
        tr.model.store.begin_step()
        tr.model.store.set_frozen_groups(FREEZE_MDD)
        loss, _ = tr.compute_mdd_loss(batch, tr.rng, mask_override=mask)
        reached = {id(node) for node in ad.topo_order(loss)}
        assert len(built) > 50
        assert [node for node in built if id(node) not in reached] == []


class TestRunAndResume:
    def test_run_writes_checkpoints_logs_and_history(self, tiny_dataset, tmp_path):
        tr = tiny_trainer(tiny_dataset)
        info = tr.run(tmp_path / "run")
        assert (tmp_path / "run" / "checkpoint_final.ckpt").exists()
        assert (tmp_path / "run" / "checkpoint_bri.ckpt").exists()
        log = (tmp_path / "run" / "train_log.txt").read_text()
        assert "stage=bri" in log and "stage=mdd" in log
        assert "parity=even" in log and "parity=odd" in log
        assert "lr_mlp" in log and "total=" in log
        assert info["timings"]["bri_seconds"] >= 0

    def test_resume_reproduces_uninterrupted_run(self, tiny_dataset, tmp_path):
        # uninterrupted reference
        tr_ref = tiny_trainer(tiny_dataset, seed=5)
        tr_ref.run(tmp_path / "ref")
        # interrupted: stop after 3 BRI steps, then resume from checkpoint
        tr_a = tiny_trainer(tiny_dataset, seed=5)
        out = tmp_path / "resumed"
        out.mkdir()
        for it in range(3):
            tr_a.bri_step(it)
        save_checkpoint(out / "checkpoint_latest.ckpt", tr_a.model,
                        tr_a._ckpt_meta("bri", 2))
        tr_b = tiny_trainer(tiny_dataset, seed=5)
        tr_b.run(out, resume=True)
        ref_model, _ = load_checkpoint(tmp_path / "ref" / "checkpoint_final.ckpt")
        res_model, _ = load_checkpoint(out / "checkpoint_final.ckpt")
        assert ref_model.store.checksum() == res_model.store.checksum()

    def test_failed_checkpoint_write_keeps_previous_one(self, tiny_dataset, tmp_path,
                                                        monkeypatch):
        from moblurf import fields
        tr_ref = tiny_trainer(tiny_dataset, seed=5)
        tr_ref.run(tmp_path / "ref")
        tr_a = tiny_trainer(tiny_dataset, seed=5)
        out = tmp_path / "crashed"
        out.mkdir()
        latest = out / "checkpoint_latest.ckpt"
        for it in range(3):
            tr_a.bri_step(it)
        save_checkpoint(latest, tr_a.model, tr_a._ckpt_meta("bri", 2))
        tr_a.bri_step(3)

        class FailingFile:
            """Takes the first two writes, then fails like a full disk."""
            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError("no space left on device")
                return self.f.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(fields, "open", raising=False,
                            value=lambda path, mode="r": FailingFile(open(path, mode)))
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(latest, tr_a.model, tr_a._ckpt_meta("bri", 3))
        monkeypatch.undo()
        assert [p.name for p in out.iterdir()] == ["checkpoint_latest.ckpt"]
        _, meta = load_checkpoint(latest)
        assert meta["train_state"]["iteration"] == 2
        tr_b = tiny_trainer(tiny_dataset, seed=5)
        tr_b.run(out, resume=True)
        ref_model, _ = load_checkpoint(tmp_path / "ref" / "checkpoint_final.ckpt")
        res_model, _ = load_checkpoint(out / "checkpoint_final.ckpt")
        assert ref_model.store.checksum() == res_model.store.checksum()

    def test_resumed_run_counts_killed_part_seconds(self, tiny_dataset, tmp_path,
                                                    monkeypatch):
        from types import SimpleNamespace
        from moblurf import training
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(training, "time", SimpleNamespace(time=lambda: clock.now))

        class Killed(Exception):
            pass

        def timed(tr, kill_at=None):
            """Every step takes 10 fake seconds; ``kill_at`` dies before it."""
            for name in ("bri_step", "mdd_step"):
                def step(it, batch=None, orig=getattr(tr, name), stage=name[:3]):
                    if (stage, it) == kill_at:
                        raise Killed
                    clock.now += 10.0
                    return orig(it, batch)
                setattr(tr, name, step)
            return tr

        out = tmp_path / "run"
        # a checkpoint after every step: the kill loses no finished step
        with pytest.raises(Killed):
            timed(tiny_trainer(tiny_dataset), kill_at=("bri", 4)).run(out)
        info = timed(tiny_trainer(tiny_dataset)).run(out, resume=True)
        assert info["timings"] == {"bri_seconds": 60.0, "mdd_seconds": 40.0,
                                   "total_seconds": 100.0}

    def test_resumed_log_matches_uninterrupted_log(self, tiny_dataset, tmp_path):
        class Killed(Exception):
            pass

        def trainer(kill_at=None):
            tr = tiny_trainer(tiny_dataset, seed=5, log_every=1,
                              checkpoint_fraction=0.5)
            orig = tr.bri_step

            def step(it, batch=None):
                if it == kill_at:
                    raise Killed
                return orig(it, batch)
            tr.bri_step = step
            return tr

        trainer().run(tmp_path / "ref")
        out = tmp_path / "run"
        # checkpoints follow BRI iterations 2 and 5; iterations 3 and 4 are
        # logged, then lost with the kill
        with pytest.raises(Killed):
            trainer(kill_at=5).run(out)
        assert "it=4 stage=bri" in (out / "train_log.txt").read_text()
        trainer().run(out, resume=True)
        assert (out / "train_log.txt").read_bytes() == \
            (tmp_path / "ref" / "train_log.txt").read_bytes()

    def test_nan_parameter_aborts_with_breakdown(self, tiny_dataset):
        tr = tiny_trainer(tiny_dataset)
        tr.model.store.values["static.trunk.0.w"][0, 0] = np.nan
        with pytest.raises(NumericalError) as exc:
            tr.bri_step(1)
        assert "iteration" in str(exc.value)
        assert isinstance(exc.value.breakdown, dict)

    def test_dataset_frame_count_mismatch_rejected(self, tiny_dataset):
        other = synthesize_dataset(moving_quad_scene(size=24, n_frames=4), seed=1)
        tr = tiny_trainer(tiny_dataset)
        from moblurf.training import Trainer
        with pytest.raises(ValueError, match="frames"):
            Trainer(tr.config, other, model=tr.model)


class TestGradientOracleHooks:
    def test_full_loss_checks_pass(self):
        from moblurf.gradcheck import check_full_loss
        for kind in ("bri_even", "bri_odd", "mdd"):
            result = check_full_loss(kind, seed=3)
            assert result.passed, f"{kind}: {result.max_rel_err}"

    def test_sabotage_detected(self):
        from moblurf.gradcheck import check_full_loss
        assert not check_full_loss("bri_odd", seed=3, sabotage=True).passed
