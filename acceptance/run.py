"""Acceptance gate: does a desk run deblur `moving-quad-64`?

    python3 acceptance/run.py [--seed 0] [--work DIR] [--out BENCH_acceptance.json]
                              [--ablations]

At one seed it synthesizes `moving-quad-64`, trains the `desk` profile and
the N_b = 0 ablation (`--set n_latent=0`) as two concurrent processes with
one BLAS thread each, renders both along the trained base rays
(`render --pose-source train`) and scores them (`eval`), all through the
`moblurf` command line of the checkout it lives in. It then checks the
README's four criteria on the desk run:

  * base-ray PSNR minus blurry-input PSNR       >= +1.5 dB
  * desk PSNR minus N_b = 0 PSNR                >= +0.5 dB
  * motion-mask IoU                             >= 0.5
  * mean staticness on truly static pixels      >= 0.8

and that training is reproducible: two fresh processes run the first 20
steps of a seed (10 BRI, then 10 MDD, on the desk architecture), then 10
more MDD steps on the true motion mask, and must agree bit for bit on every
loss and on the weights after each part. A fresh model's predicted mask is
empty, so only the last 10 steps refine rays by the local object-motion
MLP (LORR), as perfbench's `mdd-train` does.

With `--ablations` it then trains, renders and scores two more desk runs,
`--set lambda_lg=0` and `--set lambda_sm=0`, again as a concurrent pair.
They are reported under "ablations" and never change the verdict.

The verdict, every measured value and the stage wall times go to
`BENCH_acceptance.json` at the repo root; the exit code is 0 only when
every check passes. A full run takes about 3 minutes on a 2-vCPU Xeon
(167 s at seed 0), and `--ablations` adds a second pair of desk runs; the
host's speed moves both by up to 1.7x.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESET = "moving-quad-64"
PROBE_STEPS = 10                       # BRI steps, then as many MDD steps

# report-only desk runs of --ablations: name -> extra train arguments
ABLATIONS = {"lambda_lg_0": ["--set", "lambda_lg=0"],
             "lambda_sm_0": ["--set", "lambda_sm=0"]}

CRITERIA = {
    # name: (threshold, what it measures)
    "psnr_gain_db": (1.5, "desk base-ray PSNR minus blurry-input PSNR"),
    "ablation_gain_db": (0.5, "desk PSNR minus N_b = 0 PSNR"),
    "mask_iou": (0.5, "predicted motion mask against the true one"),
    "static_p_st": (0.8, "mean staticness on truly static pixels"),
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _moblurf(*args: str) -> list[str]:
    return [sys.executable, "-m", "moblurf.cli", *args, "--threads", "1"]


def _run(cmd: list[str]) -> None:
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def _train(data: Path, work: Path, seed: int, runs: dict) -> dict:
    """Desk runs with the extra train arguments of ``runs``, concurrently;
    their manifests' timings."""
    procs = {name: subprocess.Popen(
        _moblurf("train", "--dataset", str(data), "--out", str(work / name),
                 "--profile", "desk", "--seed", str(seed), *extra),
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for name, extra in runs.items()}
    timings = {}
    for name, proc in procs.items():
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"train {name} exited {proc.returncode}:\n{out[-3000:]}")
        timings[name] = json.loads((work / name / "manifest.json").read_text())["timings"]
    return timings


def _score(data: Path, run: Path) -> dict:
    """Render the final checkpoint along the trained base rays and score it:
    the report's per-metric means."""
    frames = run / "frames"
    _run(_moblurf("render", "--checkpoint", str(run / "checkpoint_final.ckpt"),
                  "--dataset", str(data), "--out", str(frames),
                  "--pose-source", "train"))
    _run(_moblurf("eval", "--render-dir", str(frames), "--dataset", str(data)))
    return json.loads((frames / "report.json").read_text())["means"]


def first_steps(data: str, seed: int) -> dict:
    """Losses (hex) of the first 2 * PROBE_STEPS steps of a desk-architecture
    run and a digest of the weights after them; then the same of
    PROBE_STEPS more MDD steps with the dataset's true motion mask in place
    of the predicted one, and the number of rays LORR refined in them."""
    import numpy as np

    from moblurf.config import resolve_config
    from moblurf.data import read_dataset
    from moblurf.training import FREEZE_MDD, Trainer

    cfg = resolve_config("desk", overrides={
        "seed": seed, "bri_iters": PROBE_STEPS, "mdd_iters": PROBE_STEPS})
    trainer = Trainer(cfg, read_dataset(data))
    trainer.run()
    out = {"losses": [rec["total"].hex() for rec in trainer.history],
           "weights": trainer.model.store.checksum()}
    # MDD steps as Trainer.mdd_step makes them, but for the mask
    store, truth = trainer.model.store, trainer.dataset.mask_true
    losses, refined = [], 0
    for i in range(PROBE_STEPS):
        store.set_frozen_groups(FREEZE_MDD)
        batch = trainer.sample_batch()
        rays = batch.rays
        mask = truth[rays.t, rays.uv[:, 1], rays.uv[:, 0]].astype(np.int64)
        loss, breakdown = trainer.compute_mdd_loss(batch, trainer.rng, mask_override=mask)
        trainer._optimize(loss, *trainer._rates("mdd", i))
        losses.append(breakdown.total.hex())
        refined += int(mask.sum()) * trainer.model.config.n_latent
    return {**out, "lorr_losses": losses, "lorr_weights": store.checksum(),
            "lorr_rays": refined}


def _reproducible(data: Path, seed: int) -> bool:
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--first-steps", str(data),
             "--seed", str(seed)],
            env={**_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"first-steps probe exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (outs[0] == outs[1] and len(outs[0]["losses"]) == 2 * PROBE_STEPS
            and len(outs[0]["lorr_losses"]) == PROBE_STEPS and outs[0]["lorr_rays"] > 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--work", help="working directory (default: a temporary one)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_acceptance.json"))
    ap.add_argument("--ablations", action="store_true",
                    help="also report desk runs with lambda_lg=0 and lambda_sm=0")
    ap.add_argument("--first-steps", metavar="DATASET", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.first_steps:
        print(json.dumps(first_steps(args.first_steps, args.seed)))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        data = work / "data"
        start = time.time()
        _run(_moblurf("synth", "--preset", PRESET, "--out", str(data),
                      "--seed", str(args.seed), "--force"))
        timings = _train(data, work, args.seed,
                         {"desk": [], "n_latent_0": ["--set", "n_latent=0"]})
        desk, ablation = _score(data, work / "desk"), _score(data, work / "n_latent_0")
        ablations = None
        if args.ablations:
            extra = _train(data, work, args.seed, ABLATIONS)
            ablations = {name: {**_score(data, work / name), "timings_s": extra[name]}
                         for name in ABLATIONS}
        reproducible = _reproducible(data, args.seed)
        wall = time.time() - start

    measured = {"psnr_gain_db": desk["psnr_gain"],
                "ablation_gain_db": desk["psnr"] - ablation["psnr"],
                "mask_iou": desk["mask_iou"],
                "static_p_st": desk["static_p_st"]}
    checks = {name: {"value": measured[name], "threshold": thr, "what": what,
                     "passed": measured[name] >= thr}
              for name, (thr, what) in CRITERIA.items()}
    checks["first_steps_bit_identical"] = {
        "value": reproducible, "threshold": True, "passed": reproducible,
        "what": f"{2 * PROBE_STEPS} steps (BRI then MDD), then {PROBE_STEPS} MDD "
                "steps on the true motion mask, agree bit for bit in two fresh "
                "processes"}
    passed = all(c["passed"] for c in checks.values())
    report = {
        "schema": "moblurf-acceptance/1",
        "seed": args.seed,
        "preset": PRESET,
        "passed": passed,
        "checks": checks,
        "desk": {**desk, "timings_s": timings["desk"]},
        "n_latent_0": {**ablation, "timings_s": timings["n_latent_0"]},
        **({"ablations": ablations} if ablations else {}),
        "wall_s": round(wall, 1),
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, c in checks.items():
        print(f"{'ok  ' if c['passed'] else 'MISS'} {name:<26} {c['value']!s:>22}"
              f"  (needs {c['threshold']})")
    for name, res in (ablations or {}).items():
        print(f"info {name:<26} {res['psnr']:>22}  (report only: PSNR dB)")
    print(f"verdict: {'pass' if passed else 'FAIL'}; wrote {args.out}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
