"""Blur formation: latent sharp rays and their average.

A base ray maps to N_b latent rays through per-frame global screws (one
shared rigid warp per latent index, covering camera-scale motion). Rays
whose base pixel is dynamic get a second, per-ray refinement screw from the
local object-motion MLP. The observed blurry color is the plain average of
the base color and all latent colors, so with all screws at zero and the
refinement MLP at its zero initialization the whole stage is a no-op.

The N_b latent copies of a B-ray batch travel as one copy-major bundle of
N_b*B rays: rows q*B ... q*B+B-1 hold latent copy q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .cameras import RayBatch
from .fields import SceneModel
from .render import RenderResult, motion_mask, render_rays


def gmrp(model: SceneModel, rays: RayBatch) -> RayBatch:
    """Global motion-aware ray prediction: the copy-major latent bundle."""
    n_latent, b = model.config.n_latent, len(rays)
    tiled = rays.select(np.tile(np.arange(b), n_latent))
    return tiled.warp(*model.global_screws(tiled.t, np.repeat(np.arange(n_latent), b)))


def lorr(model: SceneModel, rays: RayBatch) -> RayBatch:
    """Local object-motion refinement: per-ray screw from the local MLP."""
    screw = model.local_screw(rays.origins, rays.dirs, rays.t, rays.near, rays.far)
    return rays.warp(ad.narrow(screw, 0, 3, axis=1), ad.narrow(screw, 3, 3, axis=1))


def blur_average(base_color, latent_colors):
    """Mean of the (B,3) base color and its copy-major (N_b*B,3) latent
    colors: (C + sum_q C_q)/(N_b+1)."""
    b = ad.value_of(base_color).shape[0]
    n_latent = ad.value_of(latent_colors).shape[0] // b
    latents = ad.sum_(ad.reshape(latent_colors, (n_latent, b, 3)), axis=0)
    return ad.div(ad.add(base_color, latents), float(n_latent + 1))


@dataclass
class BlurryRender:
    """Blurry composites of one ray batch, named as in ``RenderResult``."""

    base: RenderResult          # sharp render of the base rays
    mask: np.ndarray            # (B,) binary motion mask of the base rays
    color_static: object        # (B,3) blurry static composite
    color_dynamic: object       # (B,3) blurry dynamic composite
    color_full: object          # (B,3) blurry full composite
    p_st_samples: object        # ((N_b+1)*B,N) staticness, base rows first
    lorr_rays: int              # latent rays refined by the local MLP


def blurry_render(model: SceneModel, base_rays: RayBatch, n_samples: int,
                  rng: np.random.Generator | None = None,
                  mask_override: np.ndarray | None = None) -> BlurryRender:
    """Render the base rays and their latent bundle; average per branch.

    The base-ray motion mask picks the branch once per base ray: latent
    copies of static rows keep their global warp, those of dynamic rows get
    the local refinement before rendering. ``mask_override`` substitutes the
    predicted mask (testing/gradient-check hook).
    """
    base = render_rays(model, base_rays, n_samples, rng)
    mask = motion_mask(base.p_dy) if mask_override is None else np.asarray(mask_override)
    latent = gmrp(model, base_rays)
    dyn = np.flatnonzero(np.tile(mask, model.config.n_latent))
    if len(dyn):
        refined = lorr(model, latent.select(dyn))
        rows = np.arange(len(latent))
        rows[dyn] = len(latent) + np.arange(len(dyn))
        latent = _concat_rays([latent, refined]).select(rows)
    res = render_rays(model, latent, n_samples, rng)
    return BlurryRender(
        base=base, mask=mask,
        color_static=blur_average(base.color_static, res.color_static),
        color_dynamic=blur_average(base.color_dynamic, res.color_dynamic),
        color_full=blur_average(base.color_full, res.color_full),
        p_st_samples=ad.concat([base.p_st_samples, res.p_st_samples], axis=0),
        lorr_rays=len(dyn),
    )


def _concat_rays(parts: list[RayBatch]) -> RayBatch:
    first = parts[0]
    return RayBatch(
        origins=ad.concat([p.origins for p in parts], axis=0),
        dirs=ad.concat([p.dirs for p in parts], axis=0),
        t=np.concatenate([p.t for p in parts]),
        uv=np.concatenate([p.uv for p in parts]),
        near=first.near,
        far=first.far,
    )
