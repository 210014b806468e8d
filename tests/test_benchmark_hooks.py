"""The benchmark's tracer wraps moblurf functions by name
(``perfbench/tracer.py``) and its workloads call moblurf by name
(``perfbench/workloads.py``); renaming or re-signing one of them must fail
here, in the fast suite, and not only in the benchmark's own tests."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from moblurf import fields, inference, se3, training
from moblurf.config import resolve_config
from moblurf.data import synthesize_dataset
from moblurf.scene import moving_quad_scene

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def attributes():
    """Every attribute of every moblurf module and of the patched classes."""
    owners = [m for name, m in sys.modules.items()
              if name.startswith("moblurf") and m is not None]
    owners += [training.Trainer, fields.Mlp]
    return {(owner, key): value for owner in owners
            for key, value in list(vars(owner).items())}


def test_install_then_uninstall_restores_every_attribute(monkeypatch):
    tracer = load_module(monkeypatch, "tracer").Tracer()
    before = attributes()
    try:
        tracer.install()
        during = attributes()
        patched = {k for k, v in before.items() if during[k] is not v}
        for owner, key in ((inference, "infer_frame"),
                           (inference, "infer_frame_base_rays"),
                           (se3, "warp_ray"), (training.Trainer, "warp_base"),
                           (fields.Mlp, "__call__")):
            assert (owner, key) in patched, key
    finally:
        tracer.uninstall()
    after = attributes()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_workload_units_run_on_a_tiny_model(monkeypatch, tmp_path):
    # one unit of each workload, through the same calls the benchmark makes
    wl = load_module(monkeypatch, "workloads")
    ds = synthesize_dataset(moving_quad_scene(size=24, n_frames=5), seed=3,
                            preset_name="hooks-test")
    cfg = resolve_config("desk", overrides=dict(
        batch_size=24, n_samples=8, n_latent=2, trunk_depth=2, trunk_width=16,
        rgb_width=8, local_depth=2, local_width=8, ray_samples=8,
        bri_iters=4, mdd_iters=2))
    trainer = training.Trainer(cfg, ds)
    out = wl.Outputs()
    assert wl.BriTrain().run_unit(trainer, 0, out) == 2 * cfg.batch_size
    assert wl.MddTrain().run_unit(trainer, 0, out) == cfg.batch_size
    assert len(out.losses) == 3 and np.all(np.isfinite(out.losses))
    model = fields.SceneModel(cfg.field_config(ds.n_frames), np.random.default_rng(0))
    state = wl.InferState(model, ds, cfg.n_samples, [1], tmp_path)
    assert wl.InferFrame().run_unit(state, 0, out) == 24 * 24
    assert np.isfinite(out.psnr[1])
