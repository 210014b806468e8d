"""The benchmark's tracer wraps moblurf functions by name
(``perfbench/tracer.py``); renaming one of them must fail here, in the fast
suite, and not only in the benchmark's own tests."""

import importlib.util
import sys
from pathlib import Path

from moblurf import fields, inference, se3, training

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
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
    tracer = load_tracer(monkeypatch).Tracer()
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
