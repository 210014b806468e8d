"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``.

They run every workload on a one-second budget, so they take about a
minute and need ~3 GB of memory for the infer-frame process.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def results(request, tmp_path_factory):
    trace = request.param
    out = tmp_path_factory.mktemp("results") / "results.json"
    proc = _run("--seconds", "1", "--seed", "5", "--trace", str(trace),
                "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return trace, json.loads(out.read_text())


def test_results_file_schema(results):
    trace, res = results
    assert res["schema"] == "perfbench-results/1"
    assert res["trace"] == trace and res["seeds"] == [5]
    assert [r["workload"] for r in res["rows"]] == WORKLOADS
    assert list(res["summary"]) == WORKLOADS
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for row in res["rows"]:
        assert row["correct"] is True
        assert list(row["metrics"]) == [m["name"] for m in spec]
        for m in spec:
            got = row["metrics"][m["name"]]
            assert got["unit"] == m["unit"], m["name"]
            assert math.isfinite(got["value"]), m["name"]
            if not trace:
                assert got["value"] > 0, m["name"]
        assert row["samples"] == row["units"] >= 1
        assert row["step_ms_tail"] > 0 and 0 < row["tail_percentile"] <= 100
        assert row["failed"] == 0 and row["error_rate"] == 0
        assert row["attempted"] > row["units"]        # warm-up units count too
        assert all(row["checks"].values()), row["checks"]
        assert row["host"]["cores"] >= 1
        caps = set(row["host"]["thread_caps"].values())
        assert len(caps) == 1 and 1 <= int(caps.pop()) <= row["host"]["cores"]


def test_mask_source(results):
    """mdd-train loads the local object-motion layer; the others never
    reach the blur model at all."""
    trace, res = results
    if not trace:
        pytest.skip("layer counts come from the traced run")
    layers = {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()}
              for r in res["rows"]}
    assert layers["mdd-train"]["blur.lorr_rays"] > 0
    assert layers["mdd-train"]["fields.local.mlp.calls"] > 0
    assert 0 < layers["mdd-train"]["blur.lorr_share"] < 1
    for name in ("bri-train", "infer-frame"):
        assert layers[name]["blur.lorr_rays"] == 0
        assert layers[name]["fields.local.mlp.calls"] == 0
        assert layers[name]["blur.blurry_render_ms"] == 0
    assert layers["infer-frame"]["autodiff.backward_ms"] == 0
    assert layers["bri-train"]["render.render_kappa_ms"] > 0


def test_last_line_format():
    proc = _run("--workload", "bri-train", "--seed", "2", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bri-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _harness():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import harness
    finally:
        del sys.path[:2]
    return harness


def test_tail_leaves_ten_samples_above():
    tail = _harness().tail
    value, pct, beyond = tail(list(range(24)))
    assert (value, beyond) == (13, 10)
    assert sum(x > value for x in range(24)) == 10
    assert pct == pytest.approx(100 * 14 / 24)
    assert tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_summary_spread_over_seeds():
    rows = [{"workload": "w", "correct": True, "attempted": 4, "failed": 0,
             "metrics": {"step_ms_p50": {"value": v, "unit": "ms"}}}
            for v in (10.0, 12.0, 11.0, 13.0, 9.0)]
    s = _harness().summarize(rows)["w"]
    m = s["metrics"]["step_ms_p50"]
    assert s["runs"] == 5 and s["correct"] and s["error_rate"] == 0
    assert (m["median"], m["q1"], m["q3"]) == (11.0, 9.5, 12.5)
    assert m["spread"] == pytest.approx(3.0 / 11.0)


def test_host_speed_correction():
    sys.path[:0] = [str(HERE)]
    try:
        import hostspeed
    finally:
        del sys.path[:1]
    ref = hostspeed.REFERENCE_MS / 1000.0
    assert hostspeed.HostSpeed.corrected(0.5, ref, ref) == pytest.approx(0.5)
    # a host running at half speed doubles both the unit and the kernel
    assert hostspeed.HostSpeed.corrected(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert hostspeed.HostSpeed.corrected(1.0, ref, 3 * ref) == pytest.approx(0.5)
    assert hostspeed.HostSpeed().measure() > 0
