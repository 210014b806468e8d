"""Analytic dynamic scenes with closed-form ray casting.

A scene is a textured background plane (constant world z, catches every
ray) plus moving textured quads, observed by a pinhole camera on a smooth
continuous-time trajectory. Everything is evaluated in closed form, so
sharp frames, z-depth maps, and motion masks come out exact; these stand in
as ground truth for the blurry-video synthesis protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cameras import CameraPose, frame_pixel_grid, pixel_dirs


def _smooth_rgb(ax, ay, phases):
    """Band-limited, high-contrast procedural texture in [0.02, 0.98]."""
    channels = []
    for k, (fx, fy, p) in enumerate(phases):
        v = 0.5 + 0.45 * np.sin(fx * ax + fy * ay + p) \
                + 0.22 * np.sin(2.3 * fy * ax - 1.7 * fx * ay + 2 * p + k)
        channels.append(v)
    rgb = np.stack(channels, axis=-1)
    return np.clip(rgb, 0.02, 0.98)


def background_texture(x, y):
    # wavelengths a couple of world units (~20-30 px at the backdrop): easy
    # for the fields to fit, yet contrasty enough that exposure-scale motion
    # costs several dB
    return _smooth_rgb(x, y, [(2.3, 1.4, 0.0), (1.5, 2.9, 1.9), (3.3, 1.0, 4.1)])


def quad_texture(u, v):
    return _smooth_rgb(u, v, [(7.7, 5.0, 2.2), (6.1, 8.8, 0.7), (4.4, 7.2, 5.0)])


@dataclass
class MovingQuad:
    """Textured rectangle in a constant-z world plane.

    ``center_fn(tau)`` gives the world center, ``angle_fn(tau)`` the in-plane
    rotation about the world z axis; the quad never tilts, which keeps its
    true surface normal aligned with z.
    """

    half_u: float
    half_v: float
    center_fn: Callable[[float], np.ndarray]
    angle_fn: Callable[[float], float]
    texture: Callable = quad_texture


@dataclass
class AnalyticScene:
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    near: float
    far: float
    bg_z: float
    n_frames: int
    pose_fn: Callable[[float], CameraPose]
    quads: list = field(default_factory=list)
    bg_texture: Callable = background_texture
    eval_timestamps: list = field(default_factory=list)

    def frame_tau(self, t: int) -> float:
        return t / (self.n_frames - 1) if self.n_frames > 1 else 0.0

    def frame_delta(self) -> float:
        return 1.0 / (self.n_frames - 1) if self.n_frames > 1 else 1.0

    def true_poses(self) -> list:
        return [self.pose_at(t) for t in range(self.n_frames)]

    def pose_at(self, t: int) -> CameraPose:
        return self.pose_fn(self.frame_tau(t))


def render_sharp(scene: AnalyticScene, pose: CameraPose, tau: float):
    """Ray-cast one frame: returns (rgb, z_depth, motion_mask).

    rgb is float64 in [0,1], z_depth is camera-frame depth (so a plane
    orthogonal to the optical axis has constant depth), and the mask flags
    pixels whose first hit is a dynamic quad.

    A hit point at camera depth D is the camera center + D * pix_dir; only its
    world x and y are built, each with the per-element operations of that sum.
    """
    uv = frame_pixel_grid(scene.height, scene.width)
    px, py, dz = pixel_dirs(pose, uv).T
    ox, oy, oz = pose.center

    # background plane z = bg_z in world; depth along unit-camera-z dirs
    depth = (scene.bg_z - oz) / dz
    rgb = scene.bg_texture(ox + depth * px, oy + depth * py)
    mask = np.zeros(len(uv), dtype=bool)

    for quad in scene.quads:
        center = np.asarray(quad.center_fn(tau), dtype=np.float64)
        ang = float(quad.angle_fn(tau))
        d_q = (center[2] - oz) / dz
        rel_x = ox + d_q * px - center[0]
        rel_y = oy + d_q * py - center[1]
        ca, sa = np.cos(-ang), np.sin(-ang)
        lu = ca * rel_x - sa * rel_y
        lv = sa * rel_x + ca * rel_y
        inside = (np.abs(lu) <= quad.half_u) & (np.abs(lv) <= quad.half_v) \
            & (d_q > 0) & (d_q < depth)
        if inside.any():
            rgb[inside] = quad.texture(lu[inside], lv[inside])
            depth[inside] = d_q[inside]
            mask[inside] = True

    h, w = scene.height, scene.width
    return (rgb.reshape(h, w, 3), depth.reshape(h, w), mask.reshape(h, w))


# ---------------------------------------------------------------------------
# presets


def _make_pose_fn(fx, fy, cx, cy, center_amp, rot_amp):
    def pose_fn(tau: float) -> CameraPose:
        center = np.array([
            center_amp[0] * np.sin(2 * np.pi * 2.0 * tau),
            center_amp[1] * np.sin(2 * np.pi * 2.6 * tau + 1.0),
            center_amp[2] * np.sin(2 * np.pi * 1.4 * tau + 2.0),
        ])
        yaw = rot_amp * np.sin(2 * np.pi * 1.7 * tau + 0.5)
        pitch = rot_amp * np.sin(2 * np.pi * 2.2 * tau + 1.7)
        cy_, sy_ = np.cos(yaw), np.sin(yaw)
        cp_, sp_ = np.cos(pitch), np.sin(pitch)
        r_yaw = np.array([[cy_, 0, sy_], [0, 1, 0], [-sy_, 0, cy_]])
        r_pitch = np.array([[1, 0, 0], [0, cp_, -sp_], [0, sp_, cp_]])
        return CameraPose(r_yaw @ r_pitch, center, fx, fy, cx, cy)

    return pose_fn


def moving_quad_scene(size: int = 64, n_frames: int = 24) -> AnalyticScene:
    """Desk-scale default: one translating, in-plane-rotating quad over a
    textured background plane, with gentle camera jitter."""
    fx = fy = float(size)
    cx = cy = size / 2.0
    quad = MovingQuad(
        half_u=0.62, half_v=0.55,
        center_fn=lambda tau: np.array([
            0.50 * np.sin(2 * np.pi * 2.2 * tau + 0.4),
            0.32 * np.cos(2 * np.pi * 1.1 * tau + 0.9),
            3.0,
        ]),
        angle_fn=lambda tau: 2 * np.pi * 1.4 * tau,
    )
    quad2 = MovingQuad(
        half_u=0.42, half_v=0.38,
        center_fn=lambda tau: np.array([
            -0.55 * np.sin(2 * np.pi * 1.3 * tau + 2.2),
            0.45 * np.sin(2 * np.pi * 0.9 * tau + 0.5),
            3.9,
        ]),
        angle_fn=lambda tau: -2 * np.pi * 1.2 * tau,
        texture=lambda u, v: _smooth_rgb(u + 3, v - 2, [(6.6, 4.2, 1.0),
                                                        (5.0, 7.4, 3.1),
                                                        (3.9, 6.1, 0.2)]),
    )
    return AnalyticScene(
        width=size, height=size, fx=fx, fy=fy, cx=cx, cy=cy,
        near=2.0, far=7.5, bg_z=6.0, n_frames=n_frames,
        # object motion dominates the blur (several px of quad streak per
        # exposure); the camera only jitters gently, so pose corruption
        # stays far below a pixel and surfaces keep a near-zero tilt in the
        # camera frame
        pose_fn=_make_pose_fn(fx, fy, cx, cy,
                              center_amp=(0.02, 0.015, 0.01), rot_amp=0.0015),
        quads=[quad, quad2],
        eval_timestamps=[3, 9, 15, 21],
    )


def static_scene(size: int = 64, n_frames: int = 8) -> AnalyticScene:
    """Static quad, static camera: blurry frames must equal sharp frames."""
    fx = fy = float(size)
    cx = cy = size / 2.0
    quad = MovingQuad(
        half_u=0.5, half_v=0.5,
        center_fn=lambda tau: np.array([0.2, -0.1, 3.0]),
        angle_fn=lambda tau: 0.35,
    )
    return AnalyticScene(
        width=size, height=size, fx=fx, fy=fy, cx=cx, cy=cy,
        near=2.0, far=7.5, bg_z=6.0, n_frames=n_frames,
        pose_fn=lambda tau: CameraPose(np.eye(3), np.zeros(3), fx, fy, cx, cy),
        quads=[quad],
        eval_timestamps=[1, 5],
    )


def streak_scene(size: int = 64, n_frames: int = 9, speed: float = 2.4) -> AnalyticScene:
    """Uniform-velocity bright quad on a dark background, static camera.

    The horizontal blur streak length is exactly the pixel distance covered
    over one exposure window, which makes box-filter predictions testable.
    """
    fx = fy = float(size)
    cx = cy = size / 2.0
    quad = MovingQuad(
        half_u=0.45, half_v=0.45,
        center_fn=lambda tau: np.array([speed * (tau - 0.5), 0.0, 3.0]),
        angle_fn=lambda tau: 0.0,
        texture=lambda u, v: np.full(u.shape + (3,), 0.9),
    )
    return AnalyticScene(
        width=size, height=size, fx=fx, fy=fy, cx=cx, cy=cy,
        near=2.0, far=7.5, bg_z=6.0, n_frames=n_frames,
        pose_fn=lambda tau: CameraPose(np.eye(3), np.zeros(3), fx, fy, cx, cy),
        quads=[quad],
        bg_texture=lambda x, y: np.full(x.shape + (3,), 0.1),
        eval_timestamps=[4],
    )


PRESETS = {
    "moving-quad-64": moving_quad_scene,
    "static-64": static_scene,
    "streak-64": streak_scene,
}


def build_preset(name: str) -> AnalyticScene:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]()
