import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moblurf
from conftest import tiny_arch
from moblurf import autodiff as ad
from moblurf import blur, se3, training
from moblurf import losses as L
from moblurf.cameras import rays_for_pixels
from moblurf.config import resolve_config
from moblurf.data import synthesize_dataset
from moblurf.fields import load_checkpoint, save_checkpoint
from moblurf.render import sample_along_ray
from moblurf.scene import moving_quad_scene
from moblurf.training import (FREEZE_BRI_EVEN, FREEZE_BRI_ODD, FREEZE_MDD, STEPS,
                              NumericalError, Trainer)


@pytest.fixture(scope="module")
def tiny_dataset():
    return synthesize_dataset(moving_quad_scene(size=24, n_frames=5), seed=3,
                              preset_name="train-test")


def tiny_trainer(dataset, seed=0, **overrides):
    base = tiny_arch(seed=seed, batch_size=24, n_samples=8, bri_iters=6, mdd_iters=4,
                     log_every=2)
    return Trainer(resolve_config("desk", overrides=base | overrides), dataset)


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
        frozen, method = STEPS[kind]
        store.set_frozen_groups(frozen)
        store.begin_step()
        batch = tr.sample_batch()
        loss, _ = getattr(tr, method)(batch, rng=None)
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


def test_loss_breakdown_dict_lists_each_term_then_the_total():
    bd = training.LossBreakdown(photo_dynamic=1.0, photo_full=2.0, mphoto_static=3.0,
                                sm=4.0, lg=5.0)
    assert list(bd.as_dict().items()) == [
        ("photo_dynamic", 1.0), ("photo_full", 2.0), ("mphoto_static", 3.0),
        ("sm", 4.0), ("lg", 5.0), ("total", 15.0)]


class TestNoOpStart:
    def test_first_mdd_loss_matches_bri_odd_loss(self, tiny_dataset):
        # with zero screw tables and the zero-init refinement MLP, the blur
        # model is a no-op: the MDD loss on a batch equals the BRI odd loss.
        # A staticness bias of -20 marks every ray dynamic in both: LORR
        # refines every ray, and the lg term supervises every lg pixel
        tr = tiny_trainer(tiny_dataset)
        for it in range(4):
            tr.bri_step(it)
        tr.model.store.values["static.pst.0.b"][:] = -20.0
        batch = tr.sample_batch()
        tr.model.store.begin_step()
        loss_bri, bd_bri = tr.compute_bri_odd_loss(batch, rng=None)
        tr.model.store.begin_step()
        loss_mdd, bd_mdd = tr.compute_mdd_loss(batch, rng=None)
        assert float(ad.value_of(loss_mdd)) == pytest.approx(
            float(ad.value_of(loss_bri)), abs=1e-9)
        assert bd_mdd.lg == pytest.approx(bd_bri.lg, abs=1e-9) and bd_bri.lg > 0

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
    neighbours, pdist = self._neighbours(batch)
    nb = self.warp_base(neighbours)
    kappa_n = training.render_kappa(self.model, nb, sample_along_ray(
        nb.near, nb.far, self.config.n_samples, 2 * k, rng))
    rows = [[ad.narrow(x, s, k, axis=0) for x in (r.origins, r.dirs, kap)]
            for r, kap, s in ((base_rays, kappa_primary, 0), (nb, kappa_n, 0),
                              (nb, kappa_n, k))]
    cr_pred, ok_pred = L.local_geometry_cross(
        *[L.surface_points(o, d, kap) for o, d, kap in rows])
    cr_true, ok_true = L.local_geometry_cross(
        *[L.surface_points(ad.value_of(o), ad.value_of(d), dist)
          for (o, d, _), dist in zip(rows, pdist)])
    return L.lg_loss(cr_pred, ok_pred & supervise, cr_true, ok_true, n_pixels=k,
                     lam=self.config.lambda_lg)


def _mdd_gradients(tr, batch, mask, rng_state):
    """Loss value, every parameter gradient and the RNG state after one MDD
    forward and backward pass from ``rng_state``."""
    store = tr.model.store
    store.set_frozen_groups(FREEZE_MDD)
    store.begin_step()
    tr.rng.bit_generator.state = rng_state
    loss, _ = tr.compute_mdd_loss(batch, tr.rng, mask_override=mask)
    ad.backward(loss)
    grads = {n: store.grad(n).copy() for n in store.values}
    return float(ad.value_of(loss)), grads, tr.rng.bit_generator.state


class TestLocalGeometrySubset:
    def test_subset_matches_every_neighbour_rendered(self, tiny_dataset, monkeypatch):
        tr = tiny_trainer(tiny_dataset)
        # float64 fields: the two lg paths evaluate the same rows in other row
        # blocks, which may round apart in the last place; 1e-12 is a float64 bound
        tr.model.store.field_dtype = np.float64
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
        loss, grads, after = _mdd_gradients(tr, batch, mask, state)
        m = int(mask[:batch.lg_count].sum())
        assert rendered == [2 * m] and 0 < m < batch.lg_count
        monkeypatch.setattr(Trainer, "_lg_terms", lg_terms_every_neighbour)
        ref_loss, ref_grads, ref_after = _mdd_gradients(tr, batch, mask, state)
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
        loss, grads, after = _mdd_gradients(tr, batch, mask, state)
        monkeypatch.setattr(Trainer, "_lg_terms", lg_terms_every_neighbour)
        ref = _mdd_gradients(tr, batch, mask, state)
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
    neighbours, pdist = tr._neighbours(batch)
    rays = [batch.rays.select(np.arange(k)),
            neighbours.select(np.arange(k)),
            neighbours.select(np.arange(k, 2 * k))]
    screws = np.random.default_rng(4).normal(0.0, 0.1, size=(ds.n_frames, 6))
    for (pu, pv), r, dist in zip(pixels, rays, pdist):
        for i in range(k):
            pose = ds.poses_corrupt[t[i]]
            o, _, pix = rays_for_pixels(pose, np.array([[pu[i], pv[i]]]))
            point = o[0] + ds.pseudo_depth[t[i], pv[i], pu[i]] * pix[0]
            assert np.allclose(r.origins[i] + dist[i] * r.dirs[i], point,
                               rtol=0, atol=1e-12)
        w = r.warp(screws[t])
        for i in range(k):
            omega, shift = screws[t[i], :3], screws[t[i], 3:]
            moved = (se3.exp_rotation(omega) @ (r.origins[i] + dist[i] * r.dirs[i])
                     + se3.translation_matrix(omega) @ shift)
            assert np.allclose(w.origins[i] + dist[i] * w.dirs[i], moved,
                               rtol=0, atol=1e-12)


def test_neighbour_rays_are_built_only_for_a_supervised_lg_pixel(tiny_dataset, monkeypatch):
    # sample_batch makes the batch's pixel rays; the lg term makes its
    # neighbours' only once it supervises a pixel: always at BRI-odd, at
    # MDD when the motion mask marks an lg pixel dynamic, never at BRI-even
    tr = tiny_trainer(tiny_dataset)
    calls = []
    make = training.pixel_rays
    monkeypatch.setattr(training, "pixel_rays", lambda *a: calls.append(a) or make(*a))
    b = tr.config.batch_size

    def mdd(dynamic_rows):
        mask = np.zeros(b, dtype=np.int64)
        mask[dynamic_rows] = 1
        tr.model.store.begin_step()
        tr.model.store.set_frozen_groups(FREEZE_MDD)
        tr.compute_mdd_loss(tr.sample_batch(), tr.rng, mask_override=mask)

    counts = []
    for step in (lambda: tr.bri_step(0), lambda: tr.bri_step(1), lambda: mdd([]),
                 lambda: mdd([0])):
        calls.clear()
        step()
        counts.append(len(calls))
    assert counts == [1, 2, 1, 2]


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


def test_mdd_loss_field_rows(tiny_dataset, monkeypatch):
    # each field runs over the base ray's B*N samples and the N_b*B latent
    # rays' k each, the dynamic field also over the supervised lg pixels'
    # two neighbours' N each: the base ray's k-sample composite evaluates
    # no field
    from moblurf import fields
    tr = tiny_trainer(tiny_dataset)
    batch = tr.sample_batch()
    rows = {}
    call = fields.Mlp.__call__

    def spy(self, x):
        rows[self.prefix] = rows.get(self.prefix, 0) + ad.value_of(x).shape[0]
        return call(self, x)

    monkeypatch.setattr(fields.Mlp, "__call__", spy)
    mask = np.arange(len(batch.rays)) % 2
    tr.model.store.begin_step()
    tr.model.store.set_frozen_groups(FREEZE_MDD)
    tr.compute_mdd_loss(batch, tr.rng, mask_override=mask)
    cfg = tr.config
    b, n_latent = len(batch.rays), cfg.n_latent
    supervised = mask[:batch.lg_count].sum()
    assert 0 < supervised < batch.lg_count
    field_rows = b * cfg.n_samples + n_latent * b * blur.LATENT_SAMPLES
    assert rows == {"static.trunk": field_rows,
                    "dynamic.trunk": field_rows + 2 * supervised * cfg.n_samples,
                    "local.mlp": n_latent * mask.sum()}


def test_bri_even_step_builds_only_nodes_its_loss_reaches(tiny_dataset, monkeypatch):
    # the BRI-even loss reads the static composite and the detached motion
    # mask: the frozen dynamic net, the dynamic composite, kappa and the
    # full composite build no node, and every node the loss does not reach
    # belongs to the full transmittance, whose values the mask reads
    tr = tiny_trainer(tiny_dataset)
    built, renders = [], []
    init = ad.Node.__init__
    monkeypatch.setattr(ad.Node, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    render = training.render_rays
    monkeypatch.setattr(training, "render_rays",
                        lambda *a, **k: renders.append(render(*a, **k)) or renders[-1])
    for it in range(2):
        batch = tr.sample_batch()
        built.clear()
        renders.clear()
        tr.model.store.begin_step()
        tr.model.store.set_frozen_groups(FREEZE_BRI_EVEN)
        loss, _ = tr.compute_bri_even_loss(batch, tr.rng)
        (res,) = renders
        assert not isinstance(res._dynamic.out, ad.Node)
        assert not vars(res).keys() & {"weights_dynamic", "color_dynamic", "kappa_star",
                                       "color_full"}
        reached = {id(node) for node in ad.topo_order(loss)}
        full = {id(node) for part in res._full for node in ad.topo_order(part)}
        unreached = [node for node in built if id(node) not in reached]
        assert len(built) > 30 and unreached
        assert all(id(node) in full for node in unreached)
        tr.bri_step(2 * it)


def test_bri_even_dynamic_node_carries_the_sigma_head_alone(tiny_dataset, monkeypatch):
    # the frozen dynamic net serves only the detached dynamicness: its node
    # runs the trunk and the sigma head, and no RGB head
    from moblurf import fields
    tr = tiny_trainer(tiny_dataset)
    heads = []
    call = fields.Mlp.__call__

    def spy(self, x):
        heads.append((self.prefix, [h.prefix for h in self.heads]))
        return call(self, x)

    monkeypatch.setattr(fields.Mlp, "__call__", spy)
    tr.bri_step(0)
    assert heads == [("static.trunk", ["static.rgb", "static.sigma", "static.pst"]),
                     ("dynamic.trunk", ["dynamic.sigma"])]


def test_every_mlp_node_of_a_step_has_all_its_weights_as_nodes(tiny_dataset, monkeypatch):
    # ad.mlp's gradient sums the gradients of every weight and bias of every
    # stack, and makes x's and u's only when they are Nodes. That wastes no
    # work while each freeze set freezes whole nets and a frozen net's
    # inputs are detached: every mlp node of a BRI-even, BRI-odd and
    # true-mask MDD step holds all its weights as Nodes. The x and u skips
    # run: BRI-odd and MDD read a plain x, BRI-odd a plain per-ray u (the
    # static field of BRI-even reads points warped by the trained base
    # screws)
    tr = tiny_trainer(tiny_dataset)
    store = tr.model.store
    made = []
    mlp = ad.mlp

    def spy(x, layers, **kw):
        out = mlp(x, layers, **kw)
        if isinstance(out, ad.Node):
            made.append((x, layers, kw))
        return out

    def mdd_true_mask():
        store.begin_step()
        store.set_frozen_groups(FREEZE_MDD)
        batch = tr.sample_batch()
        rays = batch.rays
        mask = tr.dataset.mask_true[rays.t, rays.uv[:, 1], rays.uv[:, 0]]
        assert mask.any()
        loss, _ = tr.compute_mdd_loss(batch, tr.rng, mask_override=mask.astype(np.int64))
        ad.backward(loss)

    monkeypatch.setattr(ad, "mlp", spy)
    calls = {}
    for kind, step in (("bri_even", lambda: tr.bri_step(0)),
                       ("bri_odd", lambda: tr.bri_step(1)), ("mdd", mdd_true_mask)):
        step()
        calls[kind] = made[:]
        made.clear()
    for kind, kind_calls in calls.items():
        assert kind_calls, kind
        for x, layers, kw in kind_calls:
            stacks = [layers, *(ls for ls, _, _ in kw.get("heads", ()))]
            assert all(isinstance(p, ad.Node) for ls in stacks for pair in ls for p in pair)
    plain = lambda a: a is not None and not isinstance(a, ad.Node)
    for kind in ("bri_odd", "mdd"):
        assert any(plain(x) for x, _, _ in calls[kind]), kind
    assert any(plain(u) for _, _, kw in calls["bri_odd"]
               for u in (kw.get("u"), *(hu for _, hu, _ in kw.get("heads", ()))))
    # LORR's local.mlp ran in the MDD step: a node without heads
    assert any(not kw.get("heads") for _, _, kw in calls["mdd"])


def test_mdd_loss_matches_finite_differences_off_the_no_op(monkeypatch):
    # non-zero global screws, a local MLP that moves the refined rows, and
    # half the rows refined: the MDD loss against central differences, with
    # the latent proposal grid held where the unperturbed render put it
    from moblurf import gradcheck as gc
    tr = gc._tiny_trainer(4)
    store = tr.model.store
    # central differences at h = 1e-6 need float64 losses
    store.field_dtype = np.float64
    for it in range(4):
        tr.bri_step(it)
    rng = np.random.default_rng(5)
    store.values["screw.global"][:] = rng.normal(0.0, 0.05, store.values["screw.global"].shape)
    last = max(int(n.split(".")[2]) for n in store.names("local") if n.endswith(".w"))
    store.values[f"local.mlp.{last}.b"][:] = [0.04, -0.03, 0.05, 0.02, 0.03, -0.04]
    store.values[f"local.mlp.{last}.w"][:] = rng.normal(0.0, 0.05,
                                                        store.values[f"local.mlp.{last}.w"].shape)
    batch = tr.sample_batch()
    mask = (np.arange(len(batch.rays)) % 2).astype(np.int64)
    store.set_frozen_groups(FREEZE_MDD)
    grids = []
    draw = blur.sample_from_weights

    def held_grid(*args):
        if not grids:
            grids.append(draw(*args))
        return grids[0]

    monkeypatch.setattr(blur, "sample_from_weights", held_grid)

    def loss_value():
        store.begin_step()
        loss, _ = tr.compute_mdd_loss(batch, None, mask_override=mask)
        return loss

    ad.backward(loss_value())
    grads = {name: store.grad(name).reshape(-1) for name in store.values}
    blurred = blur.blurry_render(tr.model, tr.warp_base(batch.rays),
                                 tr.config.n_samples, None, mask)
    assert blurred.lorr_rays == mask.sum() * tr.config.n_latent
    h = gc.FD_STEP
    checked = 0
    for group in ("screw_global", "local", "static", "dynamic"):
        for name in store.names(group):
            g = grads[name]
            vals = store.values[name].reshape(-1)
            for idx in np.argsort(-np.abs(g))[:2]:
                orig = vals[idx]
                vals[idx] = orig + h
                fp = float(ad.value_of(loss_value()))
                vals[idx] = orig - h
                fm = float(ad.value_of(loss_value()))
                vals[idx] = orig
                numeric = (fp - fm) / (2 * h)
                assert abs(g[idx] - numeric) <= 1e-4 * abs(numeric) + 1e-9, (name, idx)
                checked += 1
    assert checked > 20 and np.abs(grads["screw.global"]).max() > 1e-6


class Killed(Exception):
    pass


def timed(tr, clock, kill_at=None):
    """``tr`` with every step taking 10 seconds of ``clock``; ``kill_at``, a
    (stage, iteration), dies before its step."""
    for name in ("bri_step", "mdd_step"):
        def step(it, orig=getattr(tr, name), stage=name[:3]):
            if (stage, it) == kill_at:
                raise Killed
            clock.now += 10.0
            return orig(it)
        setattr(tr, name, step)
    return tr


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

    def test_in_memory_run_matches_run_to_directory(self, tiny_dataset, tmp_path,
                                                    monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        mem = tiny_trainer(tiny_dataset, seed=3)
        assert mem.run()["checkpoint"] is None
        assert list(cwd.iterdir()) == []  # in memory: no file written
        disk = tiny_trainer(tiny_dataset, seed=3)
        info = disk.run(tmp_path / "run")
        assert info.keys() == {"checkpoint", "timings"}
        assert info["checkpoint"] == str(tmp_path / "run" / "checkpoint_final.ckpt")
        assert mem.model.store.checksum() == disk.model.store.checksum()
        assert mem.history == disk.history
        assert {r["parity"] for r in mem.history} == {"even", "odd", "-"}

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
        monkeypatch.setattr(training, "time", SimpleNamespace(monotonic=lambda: clock.now))
        out = tmp_path / "run"
        # a checkpoint after every step: the kill loses no finished step
        with pytest.raises(Killed):
            timed(tiny_trainer(tiny_dataset), clock, kill_at=("bri", 4)).run(out)
        info = timed(tiny_trainer(tiny_dataset), clock).run(out, resume=True)
        assert info["timings"] == {"bri_seconds": 60.0, "mdd_seconds": 40.0,
                                   "total_seconds": 100.0}

    def test_wall_clock_set_back_mid_stage_still_resumes(self, tiny_dataset, tmp_path,
                                                          monkeypatch):
        # the wall clock goes back an hour during BRI step 2: stage seconds
        # taken from it went negative, were checkpointed, and the resume
        # refused the run's own checkpoint
        from types import SimpleNamespace
        from moblurf import training
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(training, "time", SimpleNamespace(
            monotonic=lambda: clock.now,
            time=lambda: clock.now - 3600.0 * (clock.now >= 30.0)))
        out = tmp_path / "run"
        with pytest.raises(Killed):
            timed(tiny_trainer(tiny_dataset), clock, kill_at=("bri", 4)).run(out)
        info = timed(tiny_trainer(tiny_dataset), clock).run(out, resume=True)
        assert info["timings"] == {"bri_seconds": 60.0, "mdd_seconds": 40.0,
                                   "total_seconds": 100.0}

    def test_resumed_log_matches_uninterrupted_log(self, tiny_dataset, tmp_path):
        def trainer(kill_at=None):
            tr = tiny_trainer(tiny_dataset, seed=5, log_every=1,
                              checkpoint_fraction=0.5)
            orig = tr.bri_step

            def step(it):
                if it == kill_at:
                    raise Killed
                return orig(it)
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

    def test_resume_without_checkpoint_starts_the_log_over(self, tiny_dataset,
                                                            tmp_path):
        # a run killed before its first checkpoint leaves a log and nothing
        # to resume from: the resumed run is a fresh one, log and all
        tiny_trainer(tiny_dataset, seed=5).run(tmp_path / "ref")
        out = tmp_path / "run"
        out.mkdir()
        (out / "train_log.txt").write_text("it=0 stage=bri killed\n")
        tiny_trainer(tiny_dataset, seed=5).run(out, resume=True)
        assert (out / "train_log.txt").read_bytes() == \
            (tmp_path / "ref" / "train_log.txt").read_bytes()

    def test_nan_parameter_aborts_with_breakdown(self, tiny_dataset):
        tr = tiny_trainer(tiny_dataset)
        tr.model.store.values["static.trunk.0.w"][0, 0] = np.nan
        with pytest.raises(NumericalError) as exc:
            tr.bri_step(1)
        assert "iteration" in str(exc.value)
        assert isinstance(exc.value.breakdown, dict)

    def test_saturated_staticness_aborts_with_breakdown(self, tiny_dataset):
        # a logit of -800 rounds the staticness sigmoid to exactly 0: the
        # term is infinite, a diverged run (exit 2), not bad input (exit 1)
        tr = tiny_trainer(tiny_dataset)
        tr.model.store.values["static.pst.0.b"][:] = -800.0
        with pytest.raises(NumericalError) as exc:
            tr.bri_step(1)
        breakdown = exc.value.breakdown
        assert breakdown["sm"] == breakdown["total"] == math.inf
        assert all(math.isfinite(breakdown[k])
                   for k in ("photo_dynamic", "photo_full", "mphoto_static"))


class TestGradientOracleHooks:
    def test_full_loss_checks_pass(self):
        from moblurf.gradcheck import check_full_loss
        for kind in ("bri_even", "bri_odd", "mdd"):
            result = check_full_loss(kind, seed=3)
            assert result.passed, f"{kind}: {result.max_rel_err}"

    def test_sabotage_detected(self, wrong_gradients):
        from moblurf.gradcheck import check_full_loss
        with wrong_gradients():
            assert not check_full_loss("bri_odd", seed=3).passed

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_mdd_check_reaches_the_lg_term(self, monkeypatch, seed):
        # the check's mask marks its batch's one lg pixel dynamic, so the
        # MDD loss it differentiates holds an lg term
        from moblurf import gradcheck as gc
        lg = []
        compute = Trainer.compute_mdd_loss

        def spy(self, *args, **kwargs):
            loss, breakdown = compute(self, *args, **kwargs)
            lg.append(breakdown.lg)
            return loss, breakdown

        monkeypatch.setattr(Trainer, "compute_mdd_loss", spy)
        assert gc.check_full_loss("mdd", seed=seed).passed
        assert lg[0] > 0

    def test_mdd_probe_steps_off_a_relu_kink(self, monkeypatch, wrong_gradients):
        # at seed 6 a relu kink lies within one probe's window; the probe
        # moves to the next-largest component, and a 1 % error still fails
        from moblurf import gradcheck as gc
        flagged = []
        kinked = gc._kinked
        monkeypatch.setattr(gc, "_kinked", lambda *a: flagged.append(kinked(*a)) or flagged[-1])
        assert gc.check_full_loss("mdd", seed=6).passed
        assert any(flagged)
        with wrong_gradients():
            assert not gc.check_full_loss("mdd", seed=6).passed


# the first steps of a tiny run in a fresh process: its losses and weights
FRESH_PROCESS_STEPS = """
import numpy as np
from moblurf.config import resolve_config
from moblurf.data import synthesize_dataset
from moblurf.scene import moving_quad_scene
from moblurf.training import Trainer

ds = synthesize_dataset(moving_quad_scene(size=24, n_frames=5), seed=3,
                        preset_name="train-test")
tr = Trainer(resolve_config("desk", overrides=%r), ds)
store = tr.model.store
assert store.field_dtype == np.float32
losses = [tr.bri_step(it).total for it in range(4)] + [tr.mdd_step(it).total for it in range(2)]
print([float.hex(v) for v in losses], store.checksum())
""" % (tiny_arch(seed=1, batch_size=24, n_samples=8),)


class TestFieldDtype:
    """Training runs the fields' MLPs on float32 copies of float64 weights."""

    def test_leaves_are_float32_copies_of_the_field_weights_alone(self, tiny_dataset):
        store = tiny_trainer(tiny_dataset).model.store
        store.begin_step()
        for name in store.names():
            leaf = store.leaf(name)
            field = name.startswith(("static.", "dynamic."))
            assert leaf.value.dtype == (np.float32 if field else np.float64), name
            assert np.array_equal(leaf.value, store.values[name].astype(leaf.value.dtype))
        # a frozen field weight is a plain float32 array, the same one all step
        store.set_frozen_groups({"static"})
        w = store.leaf("static.rgb.0.w")
        assert type(w) is np.ndarray and w.dtype == np.float32
        assert store.leaf("static.rgb.0.w") is w

    @pytest.mark.parametrize("kind", ["bri_even", "bri_odd", "mdd"])
    def test_float32_gradients_match_the_float64_step(self, tiny_dataset, kind):
        # the same weights, batch and loss on both settings: float32 field
        # products move every weight gradient by < 1e-6 of its norm on this
        # model (5.1e-7 at most), so 1e-5 leaves headroom and still fails a
        # gradient of the wrong layer or sign
        frozen, method = STEPS[kind]
        grads = {}
        for dtype in (np.float64, np.float32):
            tr = tiny_trainer(tiny_dataset)
            store = tr.model.store
            store.field_dtype = np.float64
            for it in range(4):
                tr.bri_step(it)
            store.field_dtype = dtype
            batch = tr.sample_batch()
            extra = {}
            if kind == "mdd":   # every other ray dynamic: the local MLP runs
                extra["mask_override"] = (np.arange(len(batch.rays)) % 2).astype(np.int64)
            store.set_frozen_groups(frozen)
            loss, _ = getattr(tr, method)(batch, None, **extra)
            ad.backward(loss)
            grads[dtype] = {name: store.grad(name) for name in store.values}
        reached = 0
        for name, want in grads[np.float64].items():
            got = grads[np.float32][name]
            assert got.dtype == np.float64, name
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want), name
            reached += name.startswith(("static.", "dynamic.")) and bool(want.any())
        assert reached > 0

    @pytest.mark.parametrize("kind", ["bri_odd", "mdd"])
    def test_shared_float32_encoding_keeps_the_step_bits(self, tiny_dataset, kind,
                                                         monkeypatch):
        # graph-free sample points encoded once in float32, which both fields
        # read as they are, against the float64 encoding that each field cast
        # block by block: the losses and every parameter gradient, byte for
        # byte. The encoded directions stay float64: a float32 copy would
        # move the float64 gradient of the weight rows that read them
        from moblurf import fields, render
        frozen, method = STEPS[kind]
        seen = {False: set(), True: set()}

        def encoding(as_float64):
            def encode(x, num_freqs, dtype=np.float64):
                out = fields.encode_position(x, num_freqs,
                                             np.float64 if as_float64 else dtype)
                seen[as_float64].add(getattr(out, "value", out).dtype)
                return out
            return encode

        runs = []
        for as_float64 in (False, True):
            monkeypatch.setattr(render, "encode_position", encoding(as_float64))
            tr = tiny_trainer(tiny_dataset)
            losses = [tr.bri_step(it).total for it in range(4)]
            store = tr.model.store
            store.begin_step()
            store.set_frozen_groups(frozen)
            batch = tr.sample_batch()
            extra = {}
            if kind == "mdd":   # every other ray dynamic: the local MLP runs
                extra["mask_override"] = (np.arange(len(batch.rays)) % 2).astype(np.int64)
            loss, _ = getattr(tr, method)(batch, tr.rng, **extra)
            ad.backward(loss)
            runs.append(([v.hex() for v in losses], loss.value.tobytes(),
                         {name: store.grad(name).tobytes() for name in store.values}))
        assert seen == {False: {np.dtype(np.float32), np.dtype(np.float64)},
                        True: {np.dtype(np.float64)}}
        assert runs[0] == runs[1]

    def test_master_weights_moments_and_checkpoint_stay_float64(self, tiny_dataset,
                                                                tmp_path):
        tr = tiny_trainer(tiny_dataset)
        for it in range(2):
            tr.bri_step(it)
        tr.mdd_step(0)
        store = tr.model.store
        for table in (store.values, store.adam_m, store.adam_v):
            assert all(v.dtype == np.float64 for v in table.values())
        # the float64 weights and moments round-trip bit for bit
        save_checkpoint(tmp_path / "m.ckpt", tr.model)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.store.checksum() == store.checksum()
        for name in store.values:
            for table in ("values", "adam_m", "adam_v"):
                got = getattr(loaded.store, table)[name]
                assert got.dtype == np.float64
                assert np.array_equal(got, getattr(store, table)[name]), (table, name)

    @pytest.mark.parametrize("frozen", [set(), {"static"}], ids=["trains", "frozen"])
    def test_in_place_write_reaches_the_next_step(self, tiny_dataset, frozen):
        # the float32 copies are a step's: begin_step makes them anew from
        # the float64 weights, whatever wrote to those in place
        from moblurf.fields import Mlp
        model = tiny_trainer(tiny_dataset).model
        store = model.store
        store.set_frozen_groups(frozen)
        field = Mlp(store, "static.trunk", heads=(Mlp(store, "static.sigma"),))
        x = np.random.default_rng(6).normal(size=(40, model.config.pos_dim))
        before = ad.value_of(field(x))
        store.values["static.sigma.0.b"] += 0.5
        assert np.array_equal(ad.value_of(field(x)), before)   # the step's copies
        store.begin_step()
        assert np.allclose(ad.value_of(field(x)), before + 0.5, rtol=0, atol=1e-6)

    def test_two_processes_give_the_same_bits(self):
        src = str(Path(moblurf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs = []
        for _ in range(2):
            res = subprocess.run([sys.executable, "-c", FRESH_PROCESS_STEPS],
                                 capture_output=True, text=True, env=env)
            assert res.returncode == 0, res.stderr
            outs.append(res.stdout)
        assert outs[0] == outs[1] and outs[0].strip()
