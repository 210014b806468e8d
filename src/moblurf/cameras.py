"""Pinhole cameras and ray batches.

Conventions:
  * camera-to-world pose: x_world = R @ x_cam + center
  * camera frame: x right, y down, z forward (rays leave along +z)
  * pixel (u, v) maps to the camera-frame direction ((u-cx)/fx, (v-cy)/fy, 1)

The unnormalized direction above has unit camera-z component, so a point at
camera depth D is origin + D * pix_dir, at distance D * |pix_dir| along the
unit direction. Ray batches carry only the unit direction: a rigid warp
keeps |pix_dir|, so depths convert to ray distances once, where they are
read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import se3


@dataclass
class CameraPose:
    rotation: np.ndarray  # (3,3) world-from-camera
    center: np.ndarray    # (3,) camera center in world coordinates
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.center = np.asarray(self.center, dtype=np.float64)
        # negated comparisons so that NaN entries are rejected too
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError(f"focal lengths must be positive and finite "
                             f"(fx = {self.fx}, fy = {self.fy})")
        if not np.isfinite(np.append(self.center, (self.cx, self.cy))).all():
            raise ValueError(f"center and principal point must be finite "
                             f"(center = {self.center}, cx = {self.cx}, cy = {self.cy})")
        r = self.rotation
        ortho_err = np.abs(r.T @ r - np.eye(3)).max()
        det = np.linalg.det(r)
        if not (ortho_err <= 1e-6 and abs(det - 1.0) <= 1e-6):
            raise ValueError(f"rotation is not orthonormal with det +1 "
                             f"(max |R^T R - I| = {ortho_err:.3g}, det = {det:.6g})")

    def as_matrix34(self) -> np.ndarray:
        return np.concatenate([self.rotation, self.center[:, None]], axis=1)

    @staticmethod
    def from_matrix34(m, fx, fy, cx, cy) -> "CameraPose":
        m = np.asarray(m, dtype=np.float64).reshape(3, 4)
        return CameraPose(m[:, :3], m[:, 3], fx, fy, cx, cy)


def frame_pixel_grid(height: int, width: int) -> np.ndarray:
    """All (u, v) integer pixel coordinates of a frame, row-major."""
    v, u = np.mgrid[0:height, 0:width]
    return np.stack([u.ravel(), v.ravel()], axis=1)


def pixel_dirs(pose: CameraPose, uv: np.ndarray) -> np.ndarray:
    """Each pixel's unit-camera-z direction, in world coordinates, with the
    bits it has among any other pixels: a lone pixel is rotated as two
    copies of itself, since NumPy hands a one-row product to gemv, which
    rounds otherwise than the product of two rows or more."""
    uv = np.asarray(uv, dtype=np.float64)
    dirs_cam = np.stack([
        (uv[:, 0] - pose.cx) / pose.fx,
        (uv[:, 1] - pose.cy) / pose.fy,
        np.ones(len(uv)),
    ], axis=1)
    rows = dirs_cam[[0, 0]] if len(uv) == 1 else dirs_cam
    return (rows @ pose.rotation.T)[:len(uv)]


def rays_for_pixels(pose: CameraPose, uv: np.ndarray):
    """Per-pixel world rays: (origins, unit dirs, unit-camera-z dirs)."""
    pix_dirs = pixel_dirs(pose, uv)
    norms = np.linalg.norm(pix_dirs, axis=1, keepdims=True)
    dirs = pix_dirs / norms
    origins = np.broadcast_to(pose.center, dirs.shape).copy()
    return origins, dirs, pix_dirs


@dataclass
class RayBatch:
    """A batch of rays; geometric fields may be ndarrays or graph Nodes."""

    origins: object       # (B,3)
    dirs: object          # (B,3) unit length
    t: np.ndarray         # (B,) frame indices
    uv: np.ndarray        # (B,2) integer pixel coords
    near: float
    far: float

    def __len__(self):
        return len(self.t)

    def select(self, idx: np.ndarray) -> "RayBatch":
        """Row subset; geometric fields go through gather to stay in-graph."""
        return RayBatch(
            origins=ad.gather(self.origins, idx),
            dirs=ad.gather(self.dirs, idx),
            t=self.t[idx],
            uv=self.uv[idx],
            near=self.near,
            far=self.far,
        )

    def warp(self, screw) -> "RayBatch":
        """The rays rigidly moved by one (B,6) screw row each: rotation omega
        in columns 0-2, translation v in 3-5 (see :func:`se3.warp_ray`); in
        the graph when ``screw`` is a Node."""
        omega, v = ad.narrow(screw, 0, 3, axis=1), ad.narrow(screw, 3, 3, axis=1)
        o, d = se3.warp_ray(self.origins, self.dirs, omega, v)
        return RayBatch(o, d, self.t, self.uv, self.near, self.far)

    def points(self, dists):
        """The points o + d t at distances ``dists`` along the rays, (k,)
        shared by every ray or (B,k) one row per ray: (B*k,3) rows, ray by
        ray, in the graph when the rays are."""
        b, k = len(self), np.shape(dists)[-1]
        pts = ad.add(ad.reshape(self.origins, (b, 1, 3)),
                     ad.mul(ad.reshape(self.dirs, (b, 1, 3)), np.reshape(dists, (-1, k, 1))))
        return ad.reshape(pts, (b * k, 3))

    @staticmethod
    def concat(parts: list["RayBatch"]) -> "RayBatch":
        """The rays of ``parts`` in turn, under the first part's bounds; in
        the graph when any part's rays are."""
        return RayBatch(ad.concat([p.origins for p in parts], axis=0),
                        ad.concat([p.dirs for p in parts], axis=0),
                        np.concatenate([p.t for p in parts]),
                        np.concatenate([p.uv for p in parts]), parts[0].near, parts[0].far)


def pixel_rays(poses, t, uv, near: float, far: float) -> tuple[RayBatch, np.ndarray]:
    """The rays of pixels ``uv`` (B,2) of frames ``t`` (B,), each from its
    frame's pose ``poses[t]``, and each ray's |pix_dir|: its distance per
    unit of camera depth, which a rigid warp keeps."""
    t = np.asarray(t, dtype=np.int64)
    origins, dirs, scale = np.empty((len(t), 3)), np.empty((len(t), 3)), np.empty(len(t))
    for ti in np.unique(t):
        rows = np.flatnonzero(t == ti)
        o, d, p = rays_for_pixels(poses[ti], uv[rows])
        origins[rows], dirs[rows], scale[rows] = o, d, np.linalg.norm(p, axis=1)
    return RayBatch(origins, dirs, t, uv, near, far), scale


def rays_for_frame(pose: CameraPose, t: int, height: int, width: int, near: float,
                   far: float) -> RayBatch:
    """Every pixel's ray of frame ``t`` seen from ``pose``, row-major."""
    uv = frame_pixel_grid(height, width)
    return pixel_rays({t: pose}, np.full(len(uv), t), uv, near, far)[0]
