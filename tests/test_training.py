import numpy as np
import pytest

from moblurf import autodiff as ad
from moblurf import blur
from moblurf.config import resolve_config
from moblurf.data import synthesize_dataset
from moblurf.fields import load_checkpoint, save_checkpoint
from moblurf.scene import moving_quad_scene
from moblurf.training import (FREEZE_BRI_EVEN, FREEZE_BRI_ODD, FREEZE_MDD,
                              NumericalError, Trainer)


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
        store.begin_step()
        store.zero_grad()
        base = tr.warp_base(batch.rays, in_graph=False)
        res = blur.blurry_render(tr.model, base, tr.config.n_samples, rng=None,
                                 mask_override=np.zeros(len(batch.rays), dtype=int))
        loss = ad.sum_(ad.mul(res.blurry_static["full"], 1.0))
        ad.backward(loss)
        assert res.lorr_rays == 0
        for name in store.names("local"):
            assert np.all(store.grads[name] == 0.0)


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
