"""Blurry-video dataset synthesis and on-disk formats.

A blurry frame is the linear-light arithmetic mean of 2W+1 sharp sub-frames
rendered at 1/8th-of-a-frame-interval spacing around the frame time,
quantized to 8 bits only at write time. The corrupted pose that accompanies
it is built the way a pose would degrade in practice: sub-frame rotations
come from Slerp between the neighboring key poses, translations from linear
interpolation, and both are averaged with the center pose (rotations as
quaternions). Pseudo-depths emulate scale/shift-ambiguous monocular depth:
per-frame a*D + b with random a, b.

Directory layout (all little-endian):
  meta.json                     version, sizes, intrinsics, bounds, params
  blur/0000.png ...             8-bit RGB blurry frames
  sharp/0000.png ...            held-out sharp frames
  poses_corrupt.txt             one line per frame: 12 reals, row-major 3x4
  poses_true.txt                same format, true poses
  depth_pseudo/0000.raw ...     magic MBRFDPT1, u32 H, u32 W, f32 payload
  depth_true/0000.raw ...
  mask_true/0000.png ...        8-bit, 0/255
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import se3
from .cameras import CameraPose
from .pngio import read_png, write_png
from .scene import AnalyticScene, render_sharp

DATASET_VERSION = "MBRFDS1"
DEPTH_MAGIC = b"MBRFDPT1"
# a blurry frame: 2 * WINDOW + 1 sub-frames, 1 / SUBRATE of a frame apart
WINDOW, SUBRATE = 4, 8
# the kind of frame each per-frame directory, a dataset's or a render's, holds:
# colour is 8-bit RGB PNG, a mask 0/255 PNG, a map MBRFDPT1 float32 .raw
FRAME_KINDS = {"blur": "colour", "sharp": "colour", "rgb": "colour",
               "mask_true": "mask", "mask": "mask",
               "depth_pseudo": "map", "depth_true": "map", "p_dy": "map", "kappa": "map"}


class DatasetError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# synthesis


def synth_blurry_frame(scene: AnalyticScene, t: int, renders: dict):
    """Average 2*WINDOW+1 sharp sub-frames around frame t (linear color).

    ``renders`` maps an exposure instant tau to its sharp color: a sub-frame
    whose tau it holds is read from it, and each one rendered is added to it.
    """
    tau_t = scene.frame_tau(t)
    step = scene.frame_delta() / SUBRATE
    subframes = []
    for k in range(-WINDOW, WINDOW + 1):
        tau = tau_t + k * step
        if tau not in renders:
            renders[tau] = render_sharp(scene, scene.pose_fn(tau), tau)[0]
        subframes.append(renders[tau])
    return np.mean(subframes, axis=0)


def synth_corrupt_pose(true_poses: list, t: int) -> CameraPose:
    """Exposure-averaged pose: Slerp rotations + linear translations,
    averaged with the center pose. Indices clamp at the sequence ends."""
    n = len(true_poses)
    center = true_poses[t]
    q_center = se3.quat_from_matrix(center.rotation)
    quats = []
    centers = []
    for k in range(-WINDOW, WINDOW + 1):
        if k == 0:
            quats.append(q_center)
            centers.append(center.center)
            continue
        j = min(max(t + (1 if k > 0 else -1), 0), n - 1)
        u = abs(k) / SUBRATE
        q_n = se3.quat_from_matrix(true_poses[j].rotation)
        quats.append(se3.slerp(q_center, q_n, u))
        centers.append((1 - u) * center.center + u * true_poses[j].center)
    q_avg = se3.average_quaternions(quats)
    c_avg = np.mean(centers, axis=0)
    return CameraPose(se3.matrix_from_quat(q_avg), c_avg,
                      center.fx, center.fy, center.cx, center.cy)


def perturb_depth(depth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply one random scale/shift per frame, clamped positive."""
    a = rng.uniform(0.5, 2.0)
    b = rng.uniform(-0.5, 0.5)
    return np.maximum(a * depth + b, 1e-3)


@dataclass
class BlurryDataset:
    meta: dict
    blur: np.ndarray            # (N,H,W,3) float64 in [0,1], 8-bit quantized
    poses_corrupt: list
    pseudo_depth: np.ndarray    # (N,H,W) float64 camera-z depth
    sharp: np.ndarray           # evaluation payload below
    poses_true: list
    mask_true: np.ndarray       # (N,H,W) bool
    depth_true: np.ndarray

    @property
    def n_frames(self) -> int:
        return int(self.meta["n_frames"])

    @property
    def shape(self):
        return int(self.meta["height"]), int(self.meta["width"])

    @property
    def near(self) -> float:
        return float(self.meta["near"])

    @property
    def far(self) -> float:
        return float(self.meta["far"])


def _quantize(frame: np.ndarray) -> np.ndarray:
    return np.clip(np.round(frame * 255.0), 0, 255).astype(np.uint8)


def synthesize_dataset(scene: AnalyticScene, seed: int,
                       preset_name: str = "") -> BlurryDataset:
    rng = np.random.default_rng(seed)
    poses_true = scene.true_poses()
    blur, sharp, masks, depths, pseudo = [], [], [], [], []
    poses_corrupt = []
    # each exposure instant is rendered once: the sharp frame is its window's
    # center sub-frame, and a window's last sub-frame is the next window's
    # first whenever the two tau are the same float
    renders = {}
    for t in range(scene.n_frames):
        tau = scene.frame_tau(t)
        rgb, depth, mask = render_sharp(scene, poses_true[t], tau)
        sharp.append(_quantize(rgb) / 255.0)
        masks.append(mask)
        depths.append(depth)
        pseudo.append(perturb_depth(depth, rng).astype(np.float32).astype(np.float64))
        renders[tau] = rgb
        blur.append(_quantize(synth_blurry_frame(scene, t, renders)) / 255.0)
        last = max(renders)
        renders = {last: renders[last]}
        poses_corrupt.append(synth_corrupt_pose(poses_true, t))
    meta = {
        "version": DATASET_VERSION,
        "height": scene.height,
        "width": scene.width,
        "n_frames": scene.n_frames,
        "fx": scene.fx, "fy": scene.fy, "cx": scene.cx, "cy": scene.cy,
        "near": scene.near, "far": scene.far,
        "window": WINDOW, "subrate": SUBRATE,
        "preset": preset_name, "seed": seed,
        "linear_color": True,
        # a preset's evaluation frames that a shortened scene still has
        "eval_timestamps": [t for t in scene.eval_timestamps if t < scene.n_frames],
    }
    return BlurryDataset(
        meta=meta,
        blur=np.stack(blur),
        poses_corrupt=poses_corrupt,
        pseudo_depth=np.stack(pseudo),
        sharp=np.stack(sharp),
        poses_true=poses_true,
        mask_true=np.stack(masks),
        depth_true=np.stack(depths),
    )


# ---------------------------------------------------------------------------
# file I/O


def write_depth_raw(path, depth: np.ndarray) -> None:
    d = np.asarray(depth, dtype="<f4")
    with open(path, "wb") as f:
        f.write(DEPTH_MAGIC)
        f.write(struct.pack("<II", d.shape[0], d.shape[1]))
        f.write(np.ascontiguousarray(d).tobytes())


def read_depth_raw(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(len(DEPTH_MAGIC))
        if magic != DEPTH_MAGIC:
            raise DatasetError(f"{path}: bad depth magic {magic!r}")
        dims = f.read(8)
        if len(dims) != 8:
            raise DatasetError(f"{path}: truncated depth header")
        h, w = struct.unpack("<II", dims)
        payload = f.read()
    if len(payload) != 4 * h * w:
        raise DatasetError(f"{path}: depth payload is {len(payload)} bytes, "
                           f"expected {4 * h * w} for {h}x{w}")
    depth = np.frombuffer(payload, dtype="<f4").reshape(h, w).astype(np.float64)
    if not np.isfinite(depth).all():
        raise DatasetError(f"{path}: depth values are not all finite")
    return depth


def frame_path(root, sub, t: int) -> Path:
    """The file of frame ``t`` in the per-frame directory ``sub`` of ``root``."""
    return Path(root) / sub / f"{t:04d}.{'raw' if FRAME_KINDS[sub] == 'map' else 'png'}"


def write_frame(root, sub, t: int, frame: np.ndarray) -> None:
    """Write frame ``t`` of directory ``sub``, making the directory."""
    path = frame_path(root, sub, t)
    path.parent.mkdir(parents=True, exist_ok=True)
    kind = FRAME_KINDS[sub]
    if kind == "map":
        write_depth_raw(path, frame)
    else:
        write_png(path, _quantize(frame) if kind == "colour"
                  else (frame * 255).astype(np.uint8))


def read_frame(root, sub, t: int, shape) -> np.ndarray:
    """Frame ``t`` of directory ``sub``, whose frames are ``shape`` = (H, W)
    pixels: colour in [0, 1], a mask as bool, a map as float64. A missing
    file, or one of another shape, raises :class:`DatasetError` naming it."""
    path = frame_path(root, sub, t)
    if not path.exists():
        raise DatasetError(f"{path}: missing frame file")
    kind = FRAME_KINDS[sub]
    frame = read_depth_raw(path) if kind == "map" else read_png(path)
    expect = (*shape, 3) if kind == "colour" else tuple(shape)
    if frame.shape != expect:
        raise DatasetError(f"{path}: shape {frame.shape}, expected {expect}")
    if kind == "colour":
        return frame / 255.0
    return frame > 127 if kind == "mask" else frame


def _write_poses(path, poses: list) -> None:
    with open(path, "w") as f:
        for pose in poses:
            vals = pose.as_matrix34().reshape(-1)
            f.write(" ".join(f"{v:.17g}" for v in vals) + "\n")


def read_poses(path, meta) -> list:
    """Camera poses from a text file of 12 reals per line (row-major 3x4
    [R|c]), one line per frame, with the intrinsics in ``meta``."""
    poses = []
    with open(path) as f:
        for t, line in enumerate(f):
            try:
                vals = [float(v) for v in line.split()]
                if len(vals) != 12:
                    raise ValueError(f"expected 12 values, got {len(vals)}")
                poses.append(CameraPose.from_matrix34(
                    np.array(vals).reshape(3, 4),
                    meta["fx"], meta["fy"], meta["cx"], meta["cy"]))
            except ValueError as exc:
                raise DatasetError(f"{path}:{t + 1}: {exc}") from exc
    return poses


def write_dataset(ds: BlurryDataset, path, force: bool = False) -> None:
    root = Path(path)
    if root.exists() and any(root.iterdir()) and not force:
        raise DatasetError(f"{root} exists and is not empty (use force to overwrite)")
    for sub, frames in (("blur", ds.blur), ("sharp", ds.sharp), ("mask_true", ds.mask_true),
                        ("depth_pseudo", ds.pseudo_depth), ("depth_true", ds.depth_true)):
        for t in range(ds.n_frames):
            write_frame(root, sub, t, frames[t])
    with open(root / "meta.json", "w") as f:
        json.dump(ds.meta, f, indent=2, sort_keys=True)
    _write_poses(root / "poses_corrupt.txt", ds.poses_corrupt)
    _write_poses(root / "poses_true.txt", ds.poses_true)


def _check_meta(meta, path) -> None:
    """Raise :class:`DatasetError` naming ``path`` unless ``meta`` is an
    object of this version whose sizes are positive ints, whose intrinsics
    and bounds are finite numbers with fx, fy > 0 and 0 < near < far, and
    whose ``eval_timestamps``, if any, are frame indices."""
    if not isinstance(meta, dict):
        raise DatasetError(f"{path}: expected a JSON object, got {type(meta).__name__}")
    if meta.get("version") != DATASET_VERSION:
        raise DatasetError(f"{path}: unsupported dataset version "
                           f"{meta.get('version')!r} (expected {DATASET_VERSION})")
    sizes, reals = ("n_frames", "height", "width"), ("fx", "fy", "cx", "cy", "near", "far")
    missing = [k for k in sizes + reals if k not in meta]
    if missing:
        raise DatasetError(f"{path}: missing {', '.join(missing)}")

    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    for k in sizes:
        if not (is_int(meta[k]) and meta[k] > 0):
            raise DatasetError(f"{path}: {k} must be a positive integer, got {meta[k]!r}")
    for k in reals:
        v = meta[k]
        if not (is_int(v) or isinstance(v, float) and math.isfinite(v)):
            raise DatasetError(f"{path}: {k} must be a finite number, got {v!r}")
    if not (meta["fx"] > 0 and meta["fy"] > 0):
        raise DatasetError(f"{path}: fx and fy must be positive")
    if not 0 < meta["near"] < meta["far"]:
        raise DatasetError(f"{path}: need 0 < near < far, got near = {meta['near']}, "
                           f"far = {meta['far']}")
    stamps = meta.get("eval_timestamps", [])
    if not (isinstance(stamps, list)
            and all(is_int(t) and 0 <= t < meta["n_frames"] for t in stamps)):
        raise DatasetError(f"{path}: eval_timestamps must be a list of frame indices "
                           f"in [0, {meta['n_frames']}), got {stamps!r}")


def read_dataset(path) -> BlurryDataset:
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise DatasetError(f"{root}: missing meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise DatasetError(f"{meta_path}: corrupt JSON: {exc}") from exc
    _check_meta(meta, meta_path)
    n, shape = meta["n_frames"], (meta["height"], meta["width"])
    blur, sharp, mask, pseudo, depth_true = (
        np.stack([read_frame(root, sub, t, shape) for t in range(n)])
        for sub in ("blur", "sharp", "mask_true", "depth_pseudo", "depth_true"))
    poses_corrupt = read_poses(root / "poses_corrupt.txt", meta)
    poses_true = read_poses(root / "poses_true.txt", meta)
    if len(poses_corrupt) != n or len(poses_true) != n:
        raise DatasetError(f"{root}: pose count does not match n_frames={n}")
    return BlurryDataset(meta=meta, blur=blur, poses_corrupt=poses_corrupt,
                         pseudo_depth=pseudo, sharp=sharp, poses_true=poses_true,
                         mask_true=mask, depth_true=depth_true)
