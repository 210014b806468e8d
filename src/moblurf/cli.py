"""Command-line interface: synth | train | render | eval | gradcheck.

Exit codes: 0 success, 1 validation error (bad arguments, malformed files,
inconsistent shapes), 2 numerical failure (non-finite losses, gradient
check failures).

Heavy imports happen inside the command handlers so `--threads` can cap the
BLAS pools through environment variables before NumPy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _set_threads(n: int | None):
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        out[key.strip()] = _parse_value(val.strip())
    return out


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _parse_timestamps(text):
    return [int(v) for v in text.replace(",", " ").split()] if text else None


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    from .config import write_manifest
    from .data import synthesize_dataset, write_dataset
    from .scene import build_preset

    scene = build_preset(args.preset)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ValueError(f"{out} exists and is not empty (pass --force)")
    ds = synthesize_dataset(scene, seed=args.seed, preset_name=args.preset)
    write_dataset(ds, out, force=True)
    write_manifest(out / "manifest.json", "synth", args.seed,
                   {"preset": args.preset, "out": str(out)})
    print(f"wrote {ds.n_frames} frames ({ds.shape[0]}x{ds.shape[1]}) to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    from .config import (ConfigError, read_json, read_manifest, resolve_config,
                         save_manifest, write_manifest)
    from .data import read_dataset
    from .training import Trainer, resumes

    file_values = read_json(args.config) if args.config else {}
    if not isinstance(file_values, dict):
        raise ConfigError(f"{args.config}: expected a JSON object, "
                          f"got {type(file_values).__name__}")
    overrides = _parse_overrides(args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = resolve_config(file_values=file_values, overrides=overrides)
    dataset = read_dataset(args.dataset)
    trainer = Trainer(config, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    # a resumed run keeps the first run's manifest, read before training so
    # a corrupt one fails first; its timings come from the run, which carries
    # the seconds of the part before the last checkpoint
    if resumes(out, args.resume) and manifest_path.exists():
        manifest = read_manifest(manifest_path)
    else:
        manifest = write_manifest(manifest_path, "train", config.seed,
                                  {"config": config.to_dict(),
                                   "dataset": str(args.dataset), "out": str(out)})
    info = trainer.run(out, resume=args.resume, progress=args.progress)
    manifest["timings"].update(info["timings"])
    save_manifest(manifest_path, manifest)
    print(f"final checkpoint: {info['checkpoint']}")
    return EXIT_OK


def cmd_render(args) -> int:
    from .config import ConfigError, TrainConfig, write_manifest
    from .data import read_dataset, read_poses, write_depth_raw
    from .fields import load_checkpoint
    from .inference import render_frames
    from .pngio import write_png
    import numpy as np

    model, meta = load_checkpoint(args.checkpoint)
    state = meta.get("train_state")
    if not isinstance(state, dict):
        raise ConfigError(f"{args.checkpoint}: meta has no train_state object")
    # the config the checkpoint was trained with, as stored (the defaults if
    # it has none); render reads only its n_samples, so a config holding
    # keys this version has dropped still renders, and its manifest records
    # the config and its seed
    config = state.get("config") or TrainConfig().to_dict()
    n_samples = config.get("n_samples") if isinstance(config, dict) else None
    if type(n_samples) is not int or n_samples < 1:
        raise ConfigError(f"{args.checkpoint}: stored config has no positive "
                          f"integer n_samples")
    dataset = read_dataset(args.dataset)
    if args.pose_source == "file" and not args.pose_file:
        raise ValueError("--pose-file is required with --pose-source file")
    poses = (read_poses(args.pose_file, dataset.meta) if args.pose_source == "file"
             else {"train": None, "eval": dataset.poses_true}[args.pose_source])
    frames = render_frames(model, dataset, _parse_timestamps(args.timestamps), poses,
                           n_samples=n_samples)
    out = Path(args.out)
    for sub in ("rgb", "mask", "p_dy", "kappa"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for res in frames:
        name = f"{res['t']:04d}"
        write_png(out / "rgb" / f"{name}.png",
                  np.clip(np.round(res["rgb"] * 255), 0, 255).astype(np.uint8))
        write_png(out / "mask" / f"{name}.png", (res["mask"] * 255).astype(np.uint8))
        write_depth_raw(out / "p_dy" / f"{name}.raw", res["p_dy"])
        write_depth_raw(out / "kappa" / f"{name}.raw", res["kappa"])
    timestamps = [res["t"] for res in frames]
    with open(out / "render_meta.json", "w") as f:
        json.dump({"timestamps": timestamps,
                   "render_seconds": [round(res["seconds"], 4) for res in frames],
                   "pose_source": args.pose_source,
                   "checkpoint": str(args.checkpoint)}, f, indent=2)
    write_manifest(out / "manifest.json", "render", config.get("seed", 0),
                   {"config": config, "checkpoint": str(args.checkpoint),
                    "dataset": str(args.dataset)})
    print(f"rendered {len(timestamps)} frames to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .config import ConfigError, read_json
    from .data import read_dataset, read_depth_raw
    from .metrics import evaluate
    from .pngio import read_png

    dataset = read_dataset(args.dataset)
    render_dir = Path(args.render_dir)
    meta_path = render_dir / "render_meta.json"
    if not meta_path.exists():
        raise ValueError(f"{render_dir} has no render_meta.json")
    meta = read_json(meta_path)
    stamps = meta.get("timestamps") if isinstance(meta, dict) else None
    if not (isinstance(stamps, list) and all(
            type(t) is int and 0 <= t < dataset.n_frames for t in stamps)):
        raise ConfigError(f"{meta_path}: timestamps must be a list of frame "
                          f"indices in [0, {dataset.n_frames})")
    frames = []
    for t in stamps:
        rgb_path = render_dir / "rgb" / f"{t:04d}.png"
        if not rgb_path.exists():
            raise ValueError(f"missing rendered frame {rgb_path}")
        frame = {"t": t}
        for key, path, read, shape in (
                ("rgb", rgb_path, lambda p: read_png(p) / 255.0, (*dataset.shape, 3)),
                ("mask", render_dir / "mask" / f"{t:04d}.png", lambda p: read_png(p) > 127,
                 dataset.shape),
                ("p_dy", render_dir / "p_dy" / f"{t:04d}.raw", read_depth_raw, dataset.shape)):
            if path.exists():
                frame[key] = read(path)
                if frame[key].shape != shape:
                    raise ValueError(f"{path}: shape {frame[key].shape}, dataset frames "
                                     f"are {shape}")
        frames.append(frame)
    report = evaluate(dataset, frames)

    out = Path(args.out) if args.out else render_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json())
    (out / "report.txt").write_text(report.to_text())
    print(report.to_text())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_all

    results = run_all(seed=args.seed or 0)
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_rel_err={r.max_rel_err:.3e}  "
              f"tol={r.tol:.0e}  {status}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"gradient check FAILED for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as validation errors do, not argparse's 2, the
    code for numerical failures; subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moblurf",
        description="Motion-deblurring dynamic radiance fields: dataset "
                    "synthesis, two-stage training, rendering, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": dict(type=int, default=None),
        "--threads": dict(type=_positive_int, default=None,
                          help="cap worker/BLAS threads"),
        "--force": dict(action="store_true"),
    }

    def common(p, *flags):
        """``--threads`` and those of the other shared flags the command reads."""
        for flag in ("--threads", *flags):
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("synth", help="generate a synthetic blurry dataset")
    p.add_argument("--preset", default="moving-quad-64")
    p.add_argument("--out", required=True)
    common(p, "--seed", "--force")
    p.set_defaults(seed=0, func=cmd_synth)

    p = sub.add_parser("train", help="run BRI + MDD training")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file (defaults overridden "
                                    "by file, then --set)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config value")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--progress", action="store_true",
                   help="echo log lines to stdout")
    common(p, "--seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("render", help="render sharp frames from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pose-source", choices=("train", "eval", "file"),
                   default="eval")
    p.add_argument("--pose-file")
    p.add_argument("--timestamps", help="comma-separated frame indices")
    common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("eval", help="image-quality report for rendered frames")
    p.add_argument("--render-dir", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="report directory (default: render dir)")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p, "--seed")
    p.set_defaults(seed=0, func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _set_threads(args.threads)
    try:
        return args.func(args)
    except Exception as exc:
        from .data import DatasetError
        from .fields import CheckpointError
        from .optim import OptimError
        from .training import NumericalError
        if isinstance(exc, (NumericalError, OptimError)):
            detail = getattr(exc, "breakdown", None)
            print(f"numerical failure: {exc}"
                  + (f" breakdown={detail}" if detail else ""), file=sys.stderr)
            return EXIT_NUMERICAL
        if isinstance(exc, (ValueError, KeyError, IndexError, OSError,
                            DatasetError, CheckpointError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        raise


if __name__ == "__main__":
    sys.exit(main())
