"""Pinhole cameras and ray batches.

Conventions:
  * camera-to-world pose: x_world = R @ x_cam + center
  * camera frame: x right, y down, z forward (rays leave along +z)
  * pixel (u, v) maps to the camera-frame direction ((u-cx)/fx, (v-cy)/fy, 1)

The unnormalized direction above has unit camera-z component, so a point at
camera depth D is origin + D * pix_dir. Unit-length directions are kept
alongside for metric ray distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class CameraPose:
    rotation: np.ndarray  # (3,3) world-from-camera
    center: np.ndarray    # (3,) camera center in world coordinates
    fx: float
    fy: float
    cx: float
    cy: float
    t_index: int = -1

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        r = self.rotation
        ortho_err = np.abs(r.T @ r - np.eye(3)).max()
        det = np.linalg.det(r)
        # negated comparisons so that NaN entries are rejected too
        if not (ortho_err <= 1e-6 and abs(det - 1.0) <= 1e-6):
            raise ValueError(f"rotation is not orthonormal with det +1 "
                             f"(max |R^T R - I| = {ortho_err:.3g}, det = {det:.6g})")

    def as_matrix34(self) -> np.ndarray:
        return np.concatenate([self.rotation, self.center[:, None]], axis=1)

    @staticmethod
    def from_matrix34(m, fx, fy, cx, cy, t_index=-1) -> "CameraPose":
        m = np.asarray(m, dtype=np.float64).reshape(3, 4)
        return CameraPose(m[:, :3], m[:, 3], fx, fy, cx, cy, t_index)


def frame_pixel_grid(height: int, width: int) -> np.ndarray:
    """All (u, v) integer pixel coordinates of a frame, row-major."""
    v, u = np.mgrid[0:height, 0:width]
    return np.stack([u.ravel(), v.ravel()], axis=1)


def rays_for_pixels(pose: CameraPose, uv: np.ndarray):
    """Per-pixel world rays: (origins, unit dirs, unit-camera-z dirs)."""
    uv = np.asarray(uv, dtype=np.float64)
    dirs_cam = np.stack([
        (uv[:, 0] - pose.cx) / pose.fx,
        (uv[:, 1] - pose.cy) / pose.fy,
        np.ones(len(uv)),
    ], axis=1)
    pix_dirs = dirs_cam @ pose.rotation.T
    norms = np.linalg.norm(pix_dirs, axis=1, keepdims=True)
    dirs = pix_dirs / norms
    origins = np.broadcast_to(pose.center, dirs.shape).copy()
    return origins, dirs, pix_dirs


@dataclass
class RayBatch:
    """A batch of rays; geometric fields may be ndarrays or graph Nodes."""

    origins: object       # (B,3)
    dirs: object          # (B,3) unit length
    pix_dirs: object      # (B,3) unit camera-z component
    t: np.ndarray         # (B,) frame indices
    uv: np.ndarray        # (B,2) integer pixel coords
    near: float
    far: float

    def __len__(self):
        return len(self.t)

    def select(self, idx: np.ndarray) -> "RayBatch":
        """Row subset; geometric fields go through gather to stay in-graph."""
        return RayBatch(
            origins=ad.gather(self.origins, idx, axis=0),
            dirs=ad.gather(self.dirs, idx, axis=0),
            pix_dirs=ad.gather(self.pix_dirs, idx, axis=0),
            t=self.t[idx],
            uv=self.uv[idx],
            near=self.near,
            far=self.far,
        )


def rays_for_frame(pose: CameraPose, height: int, width: int, near: float,
                   far: float, t_index: int | None = None) -> RayBatch:
    uv = frame_pixel_grid(height, width)
    origins, dirs, pix_dirs = rays_for_pixels(pose, uv)
    t = np.full(len(uv), pose.t_index if t_index is None else t_index, dtype=np.int64)
    return RayBatch(origins, dirs, pix_dirs, t, uv, near, far)
