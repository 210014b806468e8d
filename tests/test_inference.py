import numpy as np
import pytest

from moblurf import autodiff as ad
from moblurf.cameras import CameraPose, rays_for_frame
from moblurf.fields import FieldConfig, SceneModel
from moblurf.inference import CHUNK, infer_frame, infer_frame_base_rays
from moblurf.render import render_rays

# more pixels than one render pass takes, so frames span two chunks
HEIGHT, WIDTH = 40, 112


def tiny_model(seed=0):
    cfg = FieldConfig(n_frames=3, n_latent=2, trunk_depth=2, trunk_width=16,
                      rgb_depth=2, rgb_width=8, local_depth=2, local_width=8,
                      ray_samples=8)
    return SceneModel(cfg, np.random.default_rng(seed))


def pose():
    return CameraPose(np.eye(3), np.array([0.1, -0.2, -1.0]), fx=60.0, fy=60.0,
                      cx=WIDTH / 2, cy=HEIGHT / 2)


def test_zero_base_screws_match_plain_inference():
    assert HEIGHT * WIDTH > CHUNK
    model = tiny_model()
    assert not model.store.values["screw.base"].any()
    plain = infer_frame(model, pose(), 1, HEIGHT, WIDTH, 1.0, 5.0, 8)
    base = infer_frame_base_rays(model, pose(), 1, HEIGHT, WIDTH, 1.0, 5.0, 8)
    assert plain.keys() == base.keys()
    # the zero-screw warp returns its inputs exactly, so bit for bit
    for key in plain:
        assert np.array_equal(plain[key], base[key]), key


def test_chunks_match_one_pass():
    model = tiny_model(seed=1)
    out = infer_frame(model, pose(), 2, HEIGHT, WIDTH, 1.0, 5.0, 8)
    model.store.begin_step()
    whole = render_rays(model, rays_for_frame(pose(), HEIGHT, WIDTH, 1.0, 5.0, t_index=2),
                        8, rng=None)
    rgb = ad.value_of(whole.color_full).reshape(HEIGHT, WIDTH, 3)
    assert np.abs(out["rgb"] - rgb).max() < 1e-12
    assert np.abs(out["p_dy"] - whole.p_dy.reshape(HEIGHT, WIDTH)).max() < 1e-12


@pytest.mark.parametrize("fn", [infer_frame, infer_frame_base_rays])
def test_frame_rendering_builds_no_graph(fn, monkeypatch):
    model = tiny_model()
    model.store.set_frozen_groups({"screw_base"})

    def no_node(*args):
        raise AssertionError("inference built a graph node")

    monkeypatch.setattr(ad.Node, "__init__", no_node)
    out = fn(model, pose(), 1, HEIGHT, WIDTH, 1.0, 5.0, 8)
    assert np.isfinite(out["rgb"]).all()
    monkeypatch.undo()
    # the caller's freeze set is back for the next training step
    assert model.store.frozen == {"screw_base"}
    assert isinstance(model.store.leaf("glo"), ad.Node)


@pytest.mark.parametrize("fn", [infer_frame, infer_frame_base_rays])
def test_rejects_untrained_time_index(fn):
    with pytest.raises(IndexError, match="outside trained range"):
        fn(tiny_model(), pose(), 3, HEIGHT, WIDTH, 1.0, 5.0, 8)
