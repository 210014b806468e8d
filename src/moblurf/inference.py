"""Sharp novel-view rendering from a trained model.

Inference casts one ray per pixel, samples deterministic segment midpoints,
and composites the probabilistic full color. No blur averaging happens
here; the blur model exists only to explain the training data. As in
training, the two fields' MLPs run on the float32 copies of their weights
that ``ParamStore.leaf`` hands out, made once per frame, and both read one
float32 copy of each chunk's encoded sample points, stored feature-major
and read in place (``fields.encode_position``); everything else runs in
float64.
"""

from __future__ import annotations

import time

import numpy as np

from .cameras import CameraPose, rays_for_frame
from .fields import SceneModel
from .render import motion_mask, render_rays
from .training import NumericalError

# rays per render pass: bounds the rows evaluated at once, 512 rays x 32
# samples = 16384 rows, whose encoded samples (3.2 MiB in float32) both
# fields read. Fewer rays pay each call's set-up more often, more hold more
# memory for no speed (the measurements are in CHANGES.md, "read where it is
# written, in 512-ray chunks"). A frame's bits do not depend on it for
# chunks of two rays or more
CHUNK = 512


def render_frames(model: SceneModel, dataset, timestamps=None, poses=None, *,
                  n_samples: int) -> list[dict]:
    """Render sharp frames of ``dataset`` at trained time indices.

    ``timestamps`` defaults to the dataset's ``eval_timestamps``, or every
    frame when it lists none. ``poses`` (indexed by time) gives the cameras;
    ``None`` renders along the trained base rays. Every index is checked
    before any frame renders. Returns one ``infer_frame`` dict per frame,
    with its time index under ``t`` and its render's wall seconds, taken
    with ``time.perf_counter``, under ``seconds``.
    """
    if model.config.n_frames != dataset.n_frames:
        raise ValueError(f"model built for {model.config.n_frames} frames, "
                         f"dataset has {dataset.n_frames}")
    if timestamps is None:
        timestamps = dataset.meta.get("eval_timestamps") or range(dataset.n_frames)
    timestamps = [int(t) for t in timestamps]
    render = infer_frame_base_rays if poses is None else infer_frame
    poses = dataset.poses_corrupt if poses is None else poses
    limit = min(dataset.n_frames, len(poses))
    for t in timestamps:
        if not 0 <= t < limit:
            raise IndexError(f"time index {t} outside trained range [0, {limit})")
    h, w = dataset.shape
    frames = []
    for t in timestamps:
        start = time.perf_counter()
        frame = render(model, poses[t], t, h, w, dataset.near, dataset.far, n_samples)
        frames.append({"t": t, **frame, "seconds": time.perf_counter() - start})
    return frames


def infer_frame(model: SceneModel, pose: CameraPose, t: int, height: int,
                width: int, near: float, far: float, n_samples: int) -> dict:
    """Render one sharp frame at a trained time index.

    Returns rgb (H,W,3) in [0,1], dynamicness map, predicted motion mask,
    and the expected dynamic ray distance map.
    """
    return _render_frame(model, pose, t, height, width, near, far, n_samples,
                         base_rays=False)


def infer_frame_base_rays(model: SceneModel, pose: CameraPose, t: int,
                          height: int, width: int, near: float, far: float,
                          n_samples: int) -> dict:
    """Render along the trained base rays: input rays warped by the frozen
    per-frame screw. This is what training optimized the fields against."""
    return _render_frame(model, pose, t, height, width, near, far, n_samples,
                         base_rays=True)


def _render_frame(model: SceneModel, pose: CameraPose, t: int, height: int,
                  width: int, near: float, far: float, n_samples: int,
                  base_rays: bool) -> dict:
    if not 0 <= t < model.config.n_frames:
        raise IndexError(f"time index {t} outside trained range "
                         f"[0, {model.config.n_frames})")
    rays = rays_for_frame(pose, t, height, width, near, far)
    rgb = np.empty((height * width, 3))
    p_dy = np.empty(height * width)
    kappa = np.empty(height * width)
    # forward only: with every group frozen the fields and the base screws
    # are plain arrays, so no graph is built. The fields' MLP weights are
    # float32 copies (ParamStore.leaf), made at the first chunk and kept
    # for the others; restoring the freeze set drops them
    store = model.store
    frozen = store.frozen
    store.set_frozen_groups(set(store.groups()))
    try:
        if base_rays:
            rays = rays.warp(model.base_screws(rays.t))
        for start in range(0, len(rays), CHUNK):
            rows = np.arange(start, min(start + CHUNK, len(rays)))
            res = render_rays(model, rays.select(rows), n_samples, rng=None)
            rgb[rows] = res.color_full
            p_dy[rows] = res.p_dy
            kappa[rows] = res.kappa_star
    finally:
        store.set_frozen_groups(frozen)
    if not np.all(np.isfinite(rgb)):
        raise NumericalError(f"non-finite pixels in the render of frame {t}")
    return {
        "rgb": rgb.reshape(height, width, 3),
        "p_dy": p_dy.reshape(height, width),
        "mask": motion_mask(p_dy).reshape(height, width),
        "kappa": kappa.reshape(height, width),
    }
