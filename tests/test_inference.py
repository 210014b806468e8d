import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moblurf
from conftest import tiny_arch
from moblurf import autodiff as ad
from moblurf import inference
from moblurf.cameras import CameraPose, rays_for_frame
from moblurf.config import TrainConfig, resolve_config
from moblurf.data import synthesize_dataset
from moblurf.fields import FieldConfig, SceneModel
from moblurf.inference import CHUNK, infer_frame, infer_frame_base_rays, render_frames
from moblurf.optim import ParamStore
from moblurf.render import render_rays
from moblurf.scene import build_preset, static_scene
from moblurf.training import NumericalError, Trainer

# more pixels than one render pass takes, so frames span two chunks
HEIGHT, WIDTH = 40, 112


def tiny_model(seed=0):
    return SceneModel(FieldConfig(**tiny_arch(n_frames=3)), np.random.default_rng(seed))


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
    # the frame and the one pass here, a training forward pass, run the
    # fields' MLPs on the same float32 copies of their weights
    model = tiny_model(seed=1)
    out = infer_frame(model, pose(), 2, HEIGHT, WIDTH, 1.0, 5.0, 8)
    model.store.begin_step()
    whole = render_rays(model, rays_for_frame(pose(), 2, HEIGHT, WIDTH, 1.0, 5.0),
                        8, rng=None)
    rgb = ad.value_of(whole.color_full).reshape(HEIGHT, WIDTH, 3)
    assert np.abs(out["rgb"] - rgb).max() < 1e-12
    assert np.abs(out["p_dy"] - whole.p_dy.reshape(HEIGHT, WIDTH)).max() < 1e-12


@pytest.mark.parametrize("fn, frozen", [
    pytest.param(fn, frozen, id=fn.__name__ + suffix)
    for frozen, suffix in (({"screw_base"}, ""), (set(), "-screw_base_trains"))
    for fn in (infer_frame, infer_frame_base_rays)])
def test_frame_rendering_builds_no_graph(fn, frozen, monkeypatch):
    # with screw_base training, the base warp must still read plain arrays
    model = tiny_model()
    model.store.set_frozen_groups(frozen)

    def no_node(*args):
        raise AssertionError("inference built a graph node")

    monkeypatch.setattr(ad.Node, "__init__", no_node)
    out = fn(model, pose(), 1, HEIGHT, WIDTH, 1.0, 5.0, 8)
    assert np.isfinite(out["rgb"]).all()
    monkeypatch.undo()
    # the caller's freeze set is back for the next training step
    assert model.store.frozen == frozen
    assert isinstance(model.store.leaf("glo"), ad.Node)


@pytest.mark.parametrize("fails", [False, True], ids=["renders", "fails"])
def test_frame_leaves_the_store_as_it_was(fails, monkeypatch):
    # the fields run on float32 copies of their weights, made for the
    # frame: the store keeps its own float64 arrays, rendered or not
    model = tiny_model()
    store = model.store
    values, digest = dict(store.values), store.checksum()
    if fails:
        def broken(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(inference, "render_rays", broken)
        with pytest.raises(MemoryError):
            infer_frame(model, pose(), 1, HEIGHT, WIDTH, 1.0, 5.0, 8)
    else:
        infer_frame(model, pose(), 1, HEIGHT, WIDTH, 1.0, 5.0, 8)
    assert store.values.keys() == values.keys()
    assert all(store.values[name] is v for name, v in values.items())
    assert all(v.dtype == np.float64 for v in store.values.values())
    assert store.checksum() == digest


def test_frame_makes_its_float32_copies_once(monkeypatch):
    # one float32 copy of a field weight serves every chunk of a frame; the
    # next frame makes its own, from the float64 weight as it is then
    model = tiny_model()
    store = model.store
    seen = []
    leaf = ParamStore.leaf

    def spy(self, name):
        got = leaf(self, name)
        if name == "static.trunk.0.w":
            seen.append(got)
        return got

    monkeypatch.setattr(ParamStore, "leaf", spy)
    copies = []
    for _ in range(2):
        infer_frame(model, pose(), 1, HEIGHT, WIDTH, 1.0, 5.0, 8)
        assert len(seen) >= -(-HEIGHT * WIDTH // CHUNK) >= 2
        assert all(w is seen[0] for w in seen)
        copies.append(seen[0])
        seen.clear()
        store.values["static.trunk.0.w"][0, 0] += 1.0
    first, second = copies
    assert type(first) is np.ndarray and first.dtype == np.float32
    assert second[0, 0] == np.float32(store.values["static.trunk.0.w"][0, 0] - 1.0)
    assert second[0, 0] != first[0, 0]


def test_training_step_after_a_frame_keeps_its_bits():
    ds = tiny_dataset()
    cfg = resolve_config("desk", overrides=tiny_arch(seed=4, batch_size=24, n_samples=8))
    plain, rendered = Trainer(cfg, ds), Trainer(cfg, ds)
    render_frames(rendered.model, ds, [1], n_samples=8)
    for it in range(2):
        assert plain.bri_step(it) == rendered.bri_step(it)
    assert plain.mdd_step(0) == rendered.mdd_step(0)
    assert plain.model.store.checksum() == rendered.model.store.checksum()


@pytest.mark.parametrize("fn", [infer_frame, infer_frame_base_rays])
def test_rejects_untrained_time_index(fn):
    with pytest.raises(IndexError, match="outside trained range"):
        fn(tiny_model(), pose(), 3, HEIGHT, WIDTH, 1.0, 5.0, 8)


def tiny_dataset(n_frames=3):
    return synthesize_dataset(static_scene(size=24, n_frames=n_frames), seed=2,
                              preset_name="inference-test")


def test_render_frames_matches_frame_functions():
    ds, model = tiny_dataset(), tiny_model(seed=1)
    h, w = ds.shape
    base = render_frames(model, ds, [2, 0], n_samples=8)
    true = render_frames(model, ds, [1], ds.poses_true, n_samples=8)
    assert [f["t"] for f in base] == [2, 0] and true[0]["t"] == 1
    for frame, fn, pose in ((base[0], infer_frame_base_rays, ds.poses_corrupt[2]),
                            (true[0], infer_frame, ds.poses_true[1])):
        ref = fn(model, pose, frame["t"], h, w, ds.near, ds.far, 8)
        for key in ref:
            assert np.array_equal(frame[key], ref[key]), key


def test_render_frames_default_timestamps():
    ds, model = tiny_dataset(), tiny_model()
    ds.meta["eval_timestamps"] = [1]
    assert [f["t"] for f in render_frames(model, ds, n_samples=4)] == [1]
    ds.meta["eval_timestamps"] = []
    assert [f["t"] for f in render_frames(model, ds, n_samples=4)] == [0, 1, 2]


def test_render_frames_checks_before_rendering(monkeypatch):
    rendered = []
    monkeypatch.setattr(inference, "infer_frame", lambda *a: rendered.append(a))
    monkeypatch.setattr(inference, "infer_frame_base_rays", lambda *a: rendered.append(a))
    ds, model = tiny_dataset(), tiny_model()
    with pytest.raises(IndexError, match="outside trained range"):
        render_frames(model, ds, [1, 3], n_samples=8)
    # two poses cover only frames 0 and 1
    with pytest.raises(IndexError, match="outside trained range"):
        render_frames(model, ds, [0, 2], ds.poses_true[:2], n_samples=8)
    with pytest.raises(ValueError, match="model built for 3 frames, dataset has 4"):
        render_frames(model, tiny_dataset(n_frames=4), [0], n_samples=8)
    assert rendered == []


@pytest.mark.parametrize("poses", ["base", "true"])
def test_render_frames_names_a_non_finite_frame(poses):
    # a NaN frame must not drop silently out of a score's mean
    ds, model = tiny_dataset(), tiny_model()
    model.store.values["static.rgb.0.b"][:] = np.nan
    with pytest.raises(NumericalError, match="non-finite pixels in the render of frame 1"):
        render_frames(model, ds, [1], None if poses == "base" else ds.poses_true,
                      n_samples=8)


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# the frames' minor page faults, each counted in the rendering process
SECOND_FRAME_FAULTS = """
import resource
import numpy as np
from moblurf.config import TrainConfig
from moblurf.fields import SceneModel
from moblurf.inference import infer_frame_base_rays
from moblurf.scene import build_preset

scene = build_preset("moving-quad-64")
cfg = TrainConfig()
model = SceneModel(cfg.field_config(scene.n_frames), np.random.default_rng(0))
poses = scene.true_poses()
for t in (3, 4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    infer_frame_base_rays(model, poses[t], t, 24, 24, scene.near, scene.far,
                          cfg.n_samples)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
def test_second_frame_takes_no_page_faults():
    # a desk model fixes the allocator's thresholds, so the second frame
    # reuses the first one's heap instead of faulting it in again
    src = str(Path(moblurf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", SECOND_FRAME_FAULTS],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    first, second = (int(v) for v in res.stdout.split())
    assert second < 100, (first, second)


def test_frame_bits_do_not_depend_on_chunk_size(monkeypatch):
    # every product of a network is one row block's, whose rows keep their
    # bits however many rays render together; 37 rays leave a short last
    # block in every chunk
    scene = build_preset("moving-quad-64")
    cfg = TrainConfig()
    model = SceneModel(cfg.field_config(scene.n_frames), np.random.default_rng(0))
    pose, t = scene.true_poses()[2], 2
    h, w = scene.height, scene.width
    whole = infer_frame_base_rays(model, pose, t, h, w, scene.near, scene.far,
                                  cfg.n_samples)
    monkeypatch.setattr(inference, "CHUNK", 37)
    small = infer_frame_base_rays(model, pose, t, h, w, scene.near, scene.far,
                                  cfg.n_samples)
    for key in ("rgb", "p_dy", "kappa"):
        assert np.array_equal(whole[key], small[key]), key
