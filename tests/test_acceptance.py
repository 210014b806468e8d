"""The acceptance gate's report, with training and scoring stubbed."""

import importlib.util
import json
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parent.parent / "acceptance" / "run.py"


@pytest.fixture
def gate(monkeypatch):
    spec = importlib.util.spec_from_file_location("acceptance_run", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    trained = []

    def train(data, work, seed, runs):
        trained.append(dict(runs))
        return {name: {"total_seconds": 1.0} for name in runs}

    def score(data, run):
        # the desk run meets every criterion; its ablations score far lower
        psnr = {"desk": 30.0, "n_latent_0": 20.0}.get(run.name, 5.0)
        return {"psnr": psnr, "psnr_gain": 2.0, "mask_iou": 0.9, "static_p_st": 0.95}

    monkeypatch.setattr(module, "_run", lambda cmd: None)
    monkeypatch.setattr(module, "_train", train)
    monkeypatch.setattr(module, "_score", score)
    monkeypatch.setattr(module, "_reproducible", lambda data, seed: True)
    module.trained = trained
    return module


@pytest.mark.parametrize("ablations", [False, True])
def test_ablations_are_report_only(gate, tmp_path, ablations):
    out = tmp_path / "gate.json"
    argv = ["--work", str(tmp_path / "work"), "--out", str(out)]
    assert gate.main(argv + ["--ablations"] * ablations) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all(check["passed"] for check in report["checks"].values())
    assert gate.trained[0] == {"desk": [], "n_latent_0": ["--set", "n_latent=0"]}
    if not ablations:
        assert len(gate.trained) == 1 and "ablations" not in report
        return
    assert gate.trained[1] == {"lambda_lg_0": ["--set", "lambda_lg=0"],
                               "lambda_sm_0": ["--set", "lambda_sm=0"]}
    assert sorted(report["ablations"]) == ["lambda_lg_0", "lambda_sm_0"]
    for run in report["ablations"].values():
        assert run["psnr"] == 5.0 and run["timings_s"] == {"total_seconds": 1.0}
