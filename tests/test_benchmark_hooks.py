"""The benchmark's tracer wraps moblurf functions by name
(``perfbench/tracer.py``) and its workloads call moblurf by name
(``perfbench/workloads.py``); renaming or re-signing one of them must fail
here, in the fast suite, and not only in the benchmark's own tests."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_arch
from moblurf import blur, fields, inference, render, se3, training
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


def tiny_trainer() -> training.Trainer:
    ds = synthesize_dataset(moving_quad_scene(size=24, n_frames=5), seed=3,
                            preset_name="hooks-test")
    cfg = resolve_config("desk", overrides=tiny_arch(
        batch_size=24, n_samples=8, bri_iters=4, mdd_iters=2))
    return training.Trainer(cfg, ds)


def run_units(wl, tmp_path):
    """One unit of each workload on a tiny model, through the same calls the
    benchmark makes; their outputs."""
    trainer = tiny_trainer()
    ds, cfg = trainer.dataset, trainer.config
    out = wl.Outputs()
    assert wl.BriTrain().run_unit(trainer, 0, out) == 2 * cfg.batch_size
    assert wl.MddTrain().run_unit(trainer, 0, out) == cfg.batch_size
    model = fields.SceneModel(cfg.field_config(ds.n_frames), np.random.default_rng(0))
    tmp_path.mkdir()
    state = wl.InferState(model, ds, cfg.n_samples, [1], tmp_path)
    assert wl.InferFrame().run_unit(state, 0, out) == 24 * 24
    return out


def test_workload_units_run_on_a_tiny_model(monkeypatch, tmp_path):
    out = run_units(load_module(monkeypatch, "workloads"), tmp_path / "run")
    assert len(out.losses) == 3 and np.all(np.isfinite(out.losses))
    assert np.isfinite(out.psnr[1])


def test_traced_units_match_untraced(monkeypatch, tmp_path):
    # the tracer's wrappers pass every call through unchanged and can count
    # each field network's rows; the heads run inside their trunk's call
    wl = load_module(monkeypatch, "workloads")
    tracer = load_module(monkeypatch, "tracer").Tracer()
    plain = run_units(wl, tmp_path / "plain")
    tracer.install()
    try:
        traced = run_units(wl, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced.losses == plain.losses
    assert traced.psnr == plain.psnr
    spans = tracer.summary(0)
    for name in ("fields.static.trunk", "fields.dynamic.trunk"):
        assert spans[name]["counts"]["rows"] > 0, name


@pytest.mark.parametrize("unit", ["render", "bri_even", "lorr"])
def test_each_field_is_one_traced_call_over_all_its_rows(monkeypatch, unit):
    # the tracer keys a field's span by its Mlp's prefix and counts its
    # rows and flops from the Mlp's store and layer count: a render and a
    # BRI-even step run each field as one trunk call over every sample
    # row, heads inside it, and LORR runs local.mlp once over its rays
    traced = load_module(monkeypatch, "tracer")
    tracer = traced.Tracer()
    trainer = tiny_trainer()
    cfg, model, rays = trainer.config, trainer.model, trainer.sample_batch().rays
    tracer.install()
    try:
        if unit == "render":
            render.render_rays(model, rays, cfg.n_samples)
        elif unit == "bri_even":
            trainer.bri_step(0)
        else:
            blur.lorr(model, rays)
    finally:
        tracer.uninstall()
    store = model.store

    def count(prefix, rows):
        macs = sum(v.size for name, v in store.values.items()
                   if name.startswith(prefix + ".") and name.endswith(".w"))
        return {"calls": 1, "rows": rows, "flop": 2 * rows * macs}

    samples = cfg.batch_size * cfg.n_samples
    want = ({"local.mlp": count("local.mlp", cfg.batch_size)} if unit == "lorr" else
            {p: count(p, samples) for p in ("static.trunk", "dynamic.trunk")})
    got = {name[len("fields."):]: {"calls": row["calls"], **row["counts"]}
           for name, row in tracer.summary(0).items()
           if name[len("fields."):] in traced.MLP_NAMES}
    assert got == want


def test_same_bits_digest_is_repeatable():
    # acceptance/same_bits.py runs the workloads above at the benchmark's
    # own scale: two calls at one seed give one digest per workload and one
    # over them all, another seed other training runs (infer-frame renders
    # one fixed model, and its first frame does not depend on the seed)
    path = PERFBENCH.parent / "acceptance" / "same_bits.py"
    spec = importlib.util.spec_from_file_location("same_bits", path)
    same_bits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bits)
    first = same_bits.digests(5, 1)
    assert list(first) == ["bri-train", "mdd-train", "infer-frame", "all"]
    assert all(len(d) == 64 for d in first.values())
    # the numbers --against compares: every step's loss, every frame's PSNR
    numbers = {}
    assert same_bits.digests(5, 1, numbers=numbers) == first
    assert {name: kind for name, (kind, _) in numbers.items()} == {
        "bri-train": "loss", "mdd-train": "loss", "infer-frame": "psnr"}
    assert all(values and all(np.isfinite(values)) for _, values in numbers.values())
    other = same_bits.digests(6, 1)
    assert [name for name, d in first.items() if other[name] != d] == [
        "bri-train", "mdd-train", "all"]


def test_same_bits_against_another_checkout(tmp_path):
    # --against runs same_bits.py on the other checkout's own src: a copy of
    # this one gives the same digests, a change that moves a training loss
    # bit names the training workloads and the combined digest, not
    # infer-frame, with the largest relative difference of their losses,
    # and the run exits 1
    import shutil
    import subprocess
    root = PERFBENCH.parent
    for part in ("src", "perfbench"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "results"))

    def against():
        proc = subprocess.run([sys.executable, str(root / "acceptance" / "same_bits.py"),
                               "--units", "1", "--against", str(tmp_path)],
                              capture_output=True, text=True)
        rows = [line.split() for line in proc.stdout.splitlines()[1:]]
        return proc.returncode, {name: rest for name, *rest in rows}

    code, rows = against()
    assert code == 0 and list(rows) == ["bri-train", "mdd-train", "infer-frame", "all"]
    assert all(len(row) == 3 and row[0] == row[1] and row[2] == "same"
               for row in rows.values())
    training_py = tmp_path / "src" / "moblurf" / "training.py"
    text = training_py.read_text()
    assert "LG_FRACTION = 0.25\n" in text
    training_py.write_text(text.replace("LG_FRACTION = 0.25\n", "LG_FRACTION = 0.5\n"))
    code, moved = against()
    assert code == 1
    assert [name for name, row in moved.items() if row[2] == "differs"] == [
        "bri-train", "mdd-train", "all"]
    assert all(moved[name][0] == rows[name][0] for name in rows)
    for name in ("bri-train", "mdd-train"):
        assert moved[name][3] == "max_rel_loss" and 0 < float(moved[name][4]) < math.inf
    assert len(moved["infer-frame"]) == len(moved["all"]) == 3
