"""Runs a workload, checks its outputs, and reports its metrics.

An untraced run (``--trace 0``) gives the end-to-end metrics. A traced run
(``--trace 1``) runs the workload twice from a fresh set-up at the same seed,
first untraced and then traced, each with half the unit budget. It reports
the per-layer metrics of the traced half, the ratio of the two step medians
as ``trace.overhead``, and fails unless both halves produced the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
from hostspeed import HostSpeed
from tracer import MLP_NAMES, Tracer
from workloads import WORKLOADS, Outputs

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5     # one set-up is short and noisy; setup_s is the median
KERNEL_EVERY_S = 0.75  # one host-speed kernel run per this much of a unit
TAIL_BEYOND = 10      # samples the tail percentile leaves above it
CHILD_TIMEOUT_S = 900

END_TO_END = {        # name -> unit, in print order
    "step_ms_p50": "ms",
    "rays_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "loss_mean": "1",
    "psnr_db": "dB",
}


@dataclass
class Phase:
    """One pass of a workload: set-ups, warm-up, then the timed loop.

    Set-ups and timed units are bracketed by host-speed measurements
    (``hostspeed``); ``setup_s`` and ``unit_s`` hold the corrected times,
    the ``*_wall_s`` lists the wall times they came from."""

    setup_s: list = field(default_factory=list)
    setup_wall_s: list = field(default_factory=list)
    unit_s: list = field(default_factory=list)    # timed units that succeeded
    unit_wall_s: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)  # every host-speed measurement
    attempted: int = 0
    failed: int = 0
    rays: int = 0
    outputs: Outputs = field(default_factory=Outputs)
    marks: dict = field(default_factory=dict)     # tracer span indices

    def p50_ms(self) -> float:
        return 1000.0 * statistics.median(self.unit_s) if self.unit_s else math.nan

    def wall_p50_ms(self) -> float:
        return (1000.0 * statistics.median(self.unit_wall_s)
                if self.unit_wall_s else math.nan)


def run_phase(workload, seed: int, n_units: int, tmp: Path,
              tracer: Tracer | None = None) -> Phase:
    ph = Phase()
    speed = HostSpeed()
    mark = tracer.mark if tracer else (lambda: 0)

    def bracketed(fn, repeats=1):
        """(result, wall seconds, corrected seconds) of one call to ``fn``."""
        before = ph.kernel_s[-1] if ph.kernel_s else speed.measure(repeats)
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        ph.kernel_s.append(speed.measure(repeats))
        return result, wall, HostSpeed.corrected(wall, before, ph.kernel_s[-1])

    ph.marks["setup"] = mark()
    for _ in range(SETUP_REPEATS):
        state, wall, corrected = bracketed(lambda: workload.setup(seed, tmp))
        ph.setup_wall_s.append(wall)
        ph.setup_s.append(corrected)
    ph.marks["setup_end"] = mark()
    # a longer unit sees the host's speed over a longer span: sample it longer
    repeats = max(1, round(workload.nominal_s / KERNEL_EVERY_S))
    for i in range(workload.warmup + n_units):
        timed = i >= workload.warmup
        if i == workload.warmup:
            ph.marks["timed"] = mark()
            ph.outputs.start_timing()
            ph.kernel_s.append(speed.measure(repeats))
        ph.attempted += 1
        try:
            if timed:
                rays, wall, corrected = bracketed(
                    lambda: workload.run_unit(state, i, ph.outputs), repeats)
            else:
                rays = workload.run_unit(state, i, ph.outputs)
        except Exception:  # a failed unit is counted and reported, not fatal
            ph.failed += 1
            print(f"unit {i} of {workload.name} failed:", file=sys.stderr)
            traceback.print_exc()
            continue
        if timed:
            ph.unit_wall_s.append(wall)
            ph.unit_s.append(corrected)
            ph.rays += rays
    return ph


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    leaves TAIL_BEYOND samples above it; the maximum when there are too
    few samples for one."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return math.nan, math.nan, 0
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(ph: Phase) -> dict:
    return {
        "step_ms_p50": ph.p50_ms(),
        "rays_per_s": ph.rays / sum(ph.unit_s),
        "setup_s": statistics.median(ph.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loss_mean": ph.outputs.loss_mean(),
        "psnr_db": ph.outputs.psnr_db(),
    }


def layer_metrics(timed: dict, setup: dict, n_units: int) -> dict:
    """Per-layer metrics, name -> (value, unit). Timings and counts are per
    timed unit of work, except set-up layers (per call during set-up),
    ``autodiff.graph_nodes`` (per backward pass) and ratios."""

    def total(keys, what="seconds", src=timed):
        rows = [src[k] for k in keys if k in src]
        return sum(r[what] if what in r else r["counts"].get(what, 0) for r in rows)

    def ms(*keys):
        return (1000.0 * total(keys) / n_units, "ms")

    def per_unit(key, what):
        return (total([key], what) / n_units, "count")

    def per_call(key, scale, unit):
        calls = total([key], "calls", setup)
        return (scale * total([key], src=setup) / calls if calls else 0.0, unit)

    out = {
        "training.sample_ms": ms("training.sample_batch"),
        "training.forward_ms": ms("training.compute_bri_even_loss",
                                  "training.compute_bri_odd_loss",
                                  "training.compute_mdd_loss"),
        "autodiff.backward_ms": ms("autodiff.backward"),
    }
    passes = total(["autodiff.topo_order"], "calls")
    out["autodiff.graph_nodes"] = (
        total(["autodiff.topo_order"], "graph_nodes") / passes if passes else 0.0,
        "count")
    out["optim.adam_ms"] = ms("optim.adam_step")
    for mlp in MLP_NAMES:
        key = f"fields.{mlp}"
        out[f"{key}.calls"] = per_unit(key, "calls")
        out[f"{key}.rows"] = per_unit(key, "rows")
        out[f"{key}.ms"] = ms(key)
        out[f"{key}.gflop"] = (total([key], "flop") / n_units / 1e9, "GFLOP")
    out["fields.encode_position_ms"] = ms("fields.encode_position")
    out["render.render_rays_ms"] = ms("render.render_rays")
    out["render.rays"] = per_unit("render.render_rays", "rays")
    out["render.sample_rows"] = per_unit("render.render_rays", "sample_rows")
    out["render.render_kappa_ms"] = ms("render.render_kappa")
    out["se3.warp_ray_calls"] = per_unit("se3.warp_ray", "calls")
    out["se3.warp_ray_ms"] = ms("se3.warp_ray")
    out["blur.blurry_render_ms"] = ms("blur.blurry_render")
    out["blur.lorr_ms"] = ms("blur.lorr")
    out["blur.lorr_rays"] = per_unit("blur.lorr", "rays")
    latent = total(["blur.blurry_render"], "latent_rays")
    out["blur.lorr_share"] = (
        total(["blur.lorr"], "rays") / latent if latent else 0.0, "ratio")
    out["inference.frame_ms"] = ms("inference.infer_frame",
                                   "inference.infer_frame_base_rays")
    out["pngio.write_ms"] = ms("pngio.write_png")
    out["pngio.read_ms"] = ms("pngio.read_png")
    out["metrics.psnr_ms"] = ms("metrics.psnr")
    out["metrics.ssim_ms"] = ms("metrics.ssim")
    out["fields.checkpoint_save_ms"] = per_call("fields.checkpoint_save", 1000.0, "ms")
    out["fields.checkpoint_load_ms"] = per_call("fields.checkpoint_load", 1000.0, "ms")
    out["data.synth_s"] = per_call("data.synthesize_dataset", 1.0, "s")
    return out


# ---------------------------------------------------------------------------
# host facts


def _libc_sysconf(name: int) -> int:
    try:
        return int(ctypes.CDLL(None).sysconf(name))
    except (OSError, AttributeError):
        return -1


def _git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict:
    # glibc _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {"l1d": 188, "l2": 191, "l3": 194}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "caches_bytes": {k: _libc_sysconf(v) for k, v in caches.items()},
        "machine": platform.machine(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_caps": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# one workload


def _check_layers(name: str, layers: dict) -> dict:
    """The workload runs the layer it is meant to load, and only it."""
    lorr = layers["blur.lorr_rays"][0]
    local = layers["fields.local.mlp.calls"][0]
    blurry = layers["blur.blurry_render_ms"][0]
    if name == "mdd-train":
        return {"lorr_refines_rays": lorr > 0 and local > 0}
    return {"blur_not_called": lorr == 0 and local == 0 and blurry == 0}


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    n_units = max(1, round(args.seconds / workload.nominal_s))
    tmp = ROOT / ".perfbench-tmp" / f"{workload.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            n_units = max(1, n_units // 2)
            plain = run_phase(workload, args.seed, n_units, tmp)
            tracer = Tracer()
            tracer.install()
            try:
                ph = run_phase(workload, args.seed, n_units, tmp, tracer)
            finally:
                tracer.uninstall()
        else:
            ph = run_phase(workload, args.seed, n_units, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            tmp.parent.rmdir()

    checks = {"no_failed_units": ph.failed == 0 and len(ph.unit_s) == n_units}
    if workload.name == "mdd-train":
        checks["true_mask_has_dynamic_rays"] = ph.outputs.dynamic_rows > 0
    if args.trace:
        layers = layer_metrics(tracer.summary(ph.marks["timed"]),
                               tracer.summary(ph.marks["setup"], ph.marks["setup_end"]),
                               n_units)
        layers["trace.overhead"] = (ph.p50_ms() / plain.p50_ms(), "ratio")
        checks["traced_equals_untraced"] = (
            plain.failed == 0
            and plain.outputs.comparable() == ph.outputs.comparable())
        checks.update(_check_layers(workload.name, layers))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(ph).items()}
    correct = all(checks.values()) and all(
        math.isfinite(m["value"]) for m in metrics.values())
    tail_s, pct, beyond = tail(ph.unit_s)
    row = {
        "workload": workload.name, "unit": workload.unit, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "units": n_units,
        "samples": len(ph.unit_s), "step_ms_tail": 1000.0 * tail_s,
        "tail_percentile": pct, "tail_beyond": beyond,
        "unit_ms": [1000.0 * x for x in ph.unit_s],
        "unit_wall_ms": [1000.0 * x for x in ph.unit_wall_s],
        "wall_step_ms_p50": ph.wall_p50_ms(),
        "setup_s": ph.setup_s, "setup_wall_s": ph.setup_wall_s,
        "host_kernel_ms": [1000.0 * x for x in ph.kernel_s],
        "correct": correct,
        "attempted": ph.attempted, "failed": ph.failed,
        "error_rate": ph.failed / ph.attempted, "checks": checks,
        "metrics": metrics, "host": host_facts(),
    }
    if args.trace:
        row["spans"] = tracer.summary(ph.marks["timed"])
    _print_row(row)
    if args.row_out:
        Path(args.row_out).write_text(json.dumps(row, indent=1))
    print(json.dumps({"correct": correct, "attempted": ph.attempted,
                      "failed": ph.failed, "metrics": metrics}))
    return 0 if correct else 1


def _print_row(row: dict) -> None:
    print(f"== {row['workload']}  seed {row['seed']}  trace {row['trace']}  "
          f"{row['units']} x {row['unit']} (budget {row['seconds']:g} s)")
    host = row["host"]
    caches = " ".join(f"{k}={v // 1024 if v > 0 else '?'}KiB"
                      for k, v in host["caches_bytes"].items())
    caps = ",".join(f"{k}={v}" for k, v in host["thread_caps"].items())
    print(f"host: cores={host['cores']} {caches} blas={host['blas']} [{caps}] "
          f"numpy={host['numpy']} python={host['python']} git={host['git_sha']}")
    for name, ok in row["checks"].items():
        print(f"check {name:<28} {'ok' if ok else 'FAILED'}")
    print(f"{'error_rate':<32} {row['error_rate']:<14.6g} "
          f"({row['failed']} failed / {row['attempted']} attempted)")
    for name, m in row["metrics"].items():
        print(f"{name:<32} {m['value']:<14.6g} {m['unit']}")
    print(f"{'step_ms_tail':<32} {row['step_ms_tail']:<14.6g} {'ms':<6} "
          f"(p{row['tail_percentile']:.1f} of {row['samples']} samples, "
          f"{row['tail_beyond']} beyond)")
    print(f"{'wall_step_ms_p50':<32} {row['wall_step_ms_p50']:<14.6g} {'ms':<6} "
          f"(uncorrected; host kernel median "
          f"{statistics.median(row['host_kernel_ms']):.4g} ms against "
          f"{hostspeed.REFERENCE_MS:g} ms on the reference box)")
    if "spans" in row:
        print(f"{'span (per unit)':<40} {'calls':>8} {'incl ms':>10} {'self ms':>10}")
        n = row["units"]
        for name, s in sorted(row["spans"].items(),
                              key=lambda kv: -kv[1]["self_seconds"]):
            print(f"{name:<40} {s['calls'] / n:>8.3g} "
                  f"{1000 * s['seconds'] / n:>10.4g} "
                  f"{1000 * s['self_seconds'] / n:>10.4g}")


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    out = Path(args.out) if args.out else (
        ROOT / "perfbench" / "results" / f"results-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    rows, status = [], 0
    for name in WORKLOADS:
        for seed in args.seed:
            row_file = out.with_name(f".{out.stem}-{name}-{seed}.json")
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--row-out", str(row_file)]
            with subprocess.Popen(cmd) as proc:
                try:
                    code = proc.wait(timeout=CHILD_TIMEOUT_S)
                except BaseException:
                    proc.terminate()    # the child then removes its temp files
                    proc.wait()
                    raise
            if code != 0:
                print(f"error: {name} seed {seed} exited {code}", file=sys.stderr)
                status = 1
            if row_file.exists():
                rows.append(json.loads(row_file.read_text()))
                row_file.unlink()
    results = {"schema": "perfbench-results/1", "seeds": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "summary": summarize(rows), "rows": rows}
    out.write_text(json.dumps(results, indent=1) + "\n")
    _print_summary(results["summary"])
    print(f"results: {out}")
    return status


def summarize(rows: list) -> dict:
    """Per workload and metric over its rows (one per seed): median, first
    and third quartile, and their distance as a share of the median."""
    by_workload: dict[str, list] = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    summary = {}
    for name, group in by_workload.items():
        summary[name] = {"runs": len(group),
                         "correct": all(r["correct"] for r in group),
                         "error_rate": sum(r["failed"] for r in group)
                         / sum(r["attempted"] for r in group),
                         "metrics": {}}
        for metric, first in group[0]["metrics"].items():
            vals = [r["metrics"][metric]["value"] for r in group]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            summary[name]["metrics"][metric] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0}
    return summary


def _print_summary(summary: dict) -> None:
    if not summary:
        return
    names = list(summary)
    first = summary[names[0]]
    several = first["runs"] > 1
    head = "median [spread]" if several else "value"
    print(f"\n{'metric (' + head + ')':<32} {'unit':<6}"
          + "".join(f" {n:>22}" for n in names))
    for metric, m in first["metrics"].items():
        cells = []
        for n in names:
            s = summary[n]["metrics"][metric]
            cells.append(f"{s['median']:.6g} [{s['spread']:.3f}]" if several
                         else f"{s['median']:.6g}")
        print(f"{metric:<32} {m['unit']:<6}" + "".join(f" {c:>22}" for c in cells))
    print(f"{'error_rate':<32} {'1':<6}"
          + "".join(f" {summary[n]['error_rate']:>22.6g}" for n in names))
    print(f"{'correct':<32} {'':<6}"
          + "".join(f" {str(summary[n]['correct']):>22}" for n in names))
