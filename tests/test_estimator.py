import numpy as np
import pytest

from moblurf import MoBluRF
from moblurf.data import synthesize_dataset
from moblurf.estimator import NotFittedError
from moblurf.scene import static_scene


@pytest.fixture(scope="module")
def tiny_dataset():
    return synthesize_dataset(static_scene(size=24, n_frames=3), seed=2,
                              preset_name="est-test")


TINY = dict(bri_iters=4, mdd_iters=2, batch_size=16, n_samples=8, n_latent=2,
            overrides=dict(trunk_depth=2, trunk_width=16, rgb_width=8,
                           local_depth=2, local_width=8, ray_samples=8))


class TestParams:
    def test_get_params_roundtrip(self):
        est = MoBluRF(profile="desk", seed=5, n_latent=3)
        params = est.get_params()
        clone = MoBluRF(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self(self):
        est = MoBluRF()
        assert est.set_params(seed=9, mdd_iters=10) is est
        assert est.seed == 9 and est.mdd_iters == 10

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            MoBluRF().set_params(gamma=1.0)

    def test_constructor_params_stored_verbatim(self):
        est = MoBluRF(profile="paper", bri_iters=17)
        assert est.profile == "paper" and est.bri_iters == 17


class TestFitPredict:
    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            MoBluRF().predict()

    def test_fit_predict_score(self, tiny_dataset):
        est = MoBluRF(seed=0, **TINY).fit(tiny_dataset)
        frames = est.predict([0, 2], pose_source="true")
        assert frames.shape == (2, 24, 24, 3)
        assert frames.min() >= 0.0 and frames.max() <= 1.0
        score = est.score([0, 2], pose_source="base")
        assert np.isfinite(score)
        assert hasattr(est, "model_") and est.history_

    def test_predict_with_maps(self, tiny_dataset):
        est = MoBluRF(seed=0, **TINY).fit(tiny_dataset)
        frames, maps = est.predict([1], pose_source="base", return_maps=True)
        assert maps[0]["p_dy"].shape == (24, 24)
        assert maps[0]["mask"].dtype == np.int64

    def test_unknown_pose_source(self, tiny_dataset):
        est = MoBluRF(seed=0, **TINY).fit(tiny_dataset)
        with pytest.raises(ValueError, match="pose_source"):
            est.predict([0], pose_source="nope")

    def test_validates_dataset_shapes(self, tiny_dataset):
        import dataclasses
        bad = dataclasses.replace(tiny_dataset,
                                  pseudo_depth=tiny_dataset.pseudo_depth[:, :4])
        with pytest.raises(ValueError, match="pseudo-depth"):
            MoBluRF(seed=0, **TINY).fit(bad)

    def test_in_memory_fit_matches_run_to_directory(self, tiny_dataset, tmp_path,
                                                    monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        mem = MoBluRF(seed=3, **TINY).fit(tiny_dataset)
        assert list(cwd.iterdir()) == []  # in-memory: no file written
        assert mem.run_info_["checkpoint"] is None
        disk = MoBluRF(seed=3, **TINY).fit(tiny_dataset, out_dir=tmp_path / "run")
        assert mem.model_.store.checksum() == disk.model_.store.checksum()
        assert mem.history_ == disk.history_
        assert {r["parity"] for r in mem.history_} == {"even", "odd", "-"}

    def test_fit_from_directory(self, tiny_dataset, tmp_path):
        from moblurf.data import write_dataset
        write_dataset(tiny_dataset, tmp_path / "ds")
        est = MoBluRF(seed=1, **TINY).fit(tmp_path / "ds", out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "checkpoint_final.ckpt").exists()
        assert est.run_info_["checkpoint"].endswith("checkpoint_final.ckpt")
