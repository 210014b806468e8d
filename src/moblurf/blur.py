"""Blur formation: latent sharp rays and their average.

A base ray maps to N_b latent rays through per-frame global screws (one
shared rigid warp per latent index, covering camera-scale motion). Rays
whose base pixel is dynamic get a second, per-ray refinement screw from the
local object-motion MLP. The observed blurry color is the plain average of
the base color and all latent colors.

The base ray renders on the N uniform samples of training. Its latent rays
render on a k = ``LATENT_SAMPLES`` proposal grid instead, drawn once per
base ray from the base render's detached full-model weights
(:func:`render.sample_from_weights`, hierarchical sampling with the base ray
as the proposal) and shared by its N_b copies. The grid's k samples are
picked from the base ray's own N, so the base ray's composite on it, C(k),
re-composites the base render's field rows at the picks
(:meth:`render.RenderResult.at`) and evaluates no field. Each latent color
is corrected by the base ray: C_q = C(N) + C_q(k) - C(k), so the k-sample
grid's quadrature error, which C(N) - C(k) measures, cancels to first
order. With all screws at zero and the refinement MLP at its zero
initialization every copy is the base ray, C_q(k) = C(k), and the whole
stage is a no-op. The staticness term reads the base ray's N samples alone,
which keeps that no-op exact for it too.

The N_b latent copies of a B-ray batch travel as one copy-major bundle of
N_b*B rays: rows q*B ... q*B+B-1 hold latent copy q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .cameras import RayBatch
from .fields import SceneModel
from .render import (RenderResult, motion_mask, render_on_grid, render_rays,
                     sample_from_weights)

# samples per latent ray, on its base ray's proposal grid
LATENT_SAMPLES = 8


def gmrp(model: SceneModel, rays: RayBatch) -> RayBatch:
    """Global motion-aware ray prediction: the copy-major latent bundle."""
    n_latent, b = model.config.n_latent, len(rays)
    tiled = rays.select(np.tile(np.arange(b), n_latent))
    return tiled.warp(model.global_screws(tiled.t, np.repeat(np.arange(n_latent), b)))


def lorr(model: SceneModel, rays: RayBatch) -> RayBatch:
    """Local object-motion refinement: per-ray screw from the local MLP."""
    return rays.warp(model.local_screw(rays))


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
    p_st_samples: object        # (B,N) staticness of the base render
    lorr_rays: int              # latent rays refined by the local MLP


def _corrected(copies, base_color, base_on_grid, n_latent: int):
    """Copy-major (N_b*B,3) latent colors C_q(k) moved by their base ray's
    C(N) - C(k)."""
    b = ad.value_of(base_color).shape[0]
    shift = ad.sub(base_color, base_on_grid)
    return ad.reshape(ad.add(ad.reshape(copies, (n_latent, b, 3)), shift),
                      (n_latent * b, 3))


def blurry_render(model: SceneModel, base_rays: RayBatch, n_samples: int,
                  rng: np.random.Generator | None = None,
                  mask_override: np.ndarray | None = None) -> BlurryRender:
    """Render the base rays and their latent bundle; average per branch.

    The base-ray motion mask picks the branch once per base ray: latent
    copies of static rows keep their global warp, those of dynamic rows get
    the local refinement before rendering. ``mask_override`` substitutes the
    predicted mask (testing/gradient-check hook). With N_b = 0 the base
    render passes through, and nothing more is drawn from ``rng``.
    """
    base = render_rays(model, base_rays, n_samples, rng)
    mask = motion_mask(base.p_dy) if mask_override is None else np.asarray(mask_override)
    n_latent, b = model.config.n_latent, len(base_rays)
    if n_latent == 0:
        return BlurryRender(base=base, mask=mask, color_static=base.color_static,
                            color_dynamic=base.color_dynamic, color_full=base.color_full,
                            p_st_samples=base.p_st_samples, lorr_rays=0)
    picks, grid = sample_from_weights(base.w_full, base.grid, LATENT_SAMPLES, rng)
    base_on_grid = base.at(picks, grid)
    latent = gmrp(model, base_rays)
    dyn = np.flatnonzero(np.tile(mask, n_latent))
    if len(dyn):
        rows = np.arange(len(latent))
        rows[dyn] = len(latent) + np.arange(len(dyn))
        latent = RayBatch.concat([latent, lorr(model, latent.select(dyn))]).select(rows)
    res = render_on_grid(model, latent, grid.select(np.tile(np.arange(b), n_latent)))
    blurred = {}
    for name in ("color_static", "color_dynamic", "color_full"):
        sharp = getattr(base, name)
        blurred[name] = blur_average(sharp, _corrected(
            getattr(res, name), sharp, getattr(base_on_grid, name), n_latent))
    return BlurryRender(base=base, mask=mask, p_st_samples=base.p_st_samples,
                        lorr_rays=len(dyn), **blurred)

