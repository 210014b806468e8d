"""Sharp novel-view rendering from a trained model.

Inference casts one ray per pixel, samples deterministic segment midpoints,
and composites the probabilistic full color. No blur averaging happens
here; the blur model exists only to explain the training data.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import se3
from .cameras import CameraPose, RayBatch, rays_for_frame
from .fields import SceneModel
from .render import motion_mask, render_rays

# rays per render pass: bounds the field activations held at once
# (4096 rays x 32 samples = 131072 rows)
CHUNK = 4096


def infer_frame(model: SceneModel, pose: CameraPose, t: int, height: int,
                width: int, near: float, far: float, n_samples: int) -> dict:
    """Render one sharp frame at a trained time index.

    Returns rgb (H,W,3) in [0,1], dynamicness map, predicted motion mask,
    and the expected dynamic ray distance map.
    """
    rays = _frame_rays(model, pose, t, height, width, near, far)
    return _render_frame(model, rays, n_samples, height, width)


def infer_frame_base_rays(model: SceneModel, pose: CameraPose, t: int,
                          height: int, width: int, near: float, far: float,
                          n_samples: int) -> dict:
    """Render along the trained base rays: input rays warped by the frozen
    per-frame screw. This is what training optimized the fields against."""
    rays = _frame_rays(model, pose, t, height, width, near, far)
    screw = model.store.values["screw.base"][rays.t]
    rays.origins, rays.dirs, rays.pix_dirs = se3.warp_ray(
        rays.origins, rays.dirs, screw[:, :3], screw[:, 3:], rays.pix_dirs)
    return _render_frame(model, rays, n_samples, height, width)


def _frame_rays(model: SceneModel, pose: CameraPose, t: int, height: int,
                width: int, near: float, far: float) -> RayBatch:
    if not 0 <= t < model.config.n_frames:
        raise IndexError(f"time index {t} outside trained range "
                         f"[0, {model.config.n_frames})")
    return rays_for_frame(pose, height, width, near, far, t_index=t)


def _render_frame(model: SceneModel, rays: RayBatch, n_samples: int,
                  height: int, width: int) -> dict:
    rgb = np.empty((height * width, 3))
    p_dy = np.empty(height * width)
    kappa = np.empty(height * width)
    model.store.begin_step()
    for start in range(0, len(rays), CHUNK):
        rows = np.arange(start, min(start + CHUNK, len(rays)))
        res = render_rays(model, rays.select(rows), n_samples, rng=None)
        rgb[rows] = ad.value_of(res.color_full)
        p_dy[rows] = res.p_dy
        kappa[rows] = ad.value_of(res.kappa_star)
    return {
        "rgb": rgb.reshape(height, width, 3),
        "p_dy": p_dy.reshape(height, width),
        "mask": motion_mask(p_dy).reshape(height, width),
        "kappa": kappa.reshape(height, width),
    }
