"""Blur formation: latent sharp rays and their average.

A base ray maps to N_b latent rays through per-frame global screws (one
shared rigid warp per latent index, covering camera-scale motion). Rays
whose base pixel is dynamic get a second, per-ray refinement screw from the
local object-motion MLP. The observed blurry color is the plain average of
the base color and all latent colors, so with all screws at zero and the
refinement MLP at its zero initialization the whole stage is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import se3
from .cameras import RayBatch
from .fields import SceneModel
from .render import RenderResult, motion_mask, render_rays

def gmrp(model: SceneModel, rays: RayBatch) -> list[RayBatch]:
    """Global motion-aware ray prediction: one warped copy per latent index."""
    out = []
    for q in range(model.config.n_latent):
        omega, v = model.global_screws(rays.t, q)
        o, d, pix = se3.warp_ray(rays.origins, rays.dirs, omega, v, rays.pix_dirs)
        out.append(RayBatch(o, d, pix, rays.t, rays.uv, rays.near, rays.far))
    return out


def lorr(model: SceneModel, rays: RayBatch) -> RayBatch:
    """Local object-motion refinement: per-ray screw from the local MLP."""
    screw = model.local_screw(rays.origins, rays.dirs, rays.t, rays.near, rays.far)
    omega = ad.narrow(screw, 0, 3, axis=1)
    v = ad.narrow(screw, 3, 3, axis=1)
    o, d, pix = se3.warp_ray(rays.origins, rays.dirs, omega, v, rays.pix_dirs)
    return RayBatch(o, d, pix, rays.t, rays.uv, rays.near, rays.far)


def blur_average(base_color, latent_colors):
    """Mean of the base color and its latent colors: (C + sum C_q)/(N_b+1)."""
    if not latent_colors:
        return base_color
    acc = base_color
    for c in latent_colors:
        acc = ad.add(acc, c)
    return ad.div(acc, float(len(latent_colors) + 1))


@dataclass
class BlurryRender:
    """Blurry composites for one ray batch, split by the base-ray mask."""

    base: RenderResult          # sharp render of the base rays (full batch)
    mask: np.ndarray            # (B,) binary motion mask of the base rays
    static_idx: np.ndarray      # rows with mask == 0
    dynamic_idx: np.ndarray     # rows with mask == 1
    # per-partition blurry colors, each (len(partition), 3)
    blurry_static: dict         # keys 's','d','full' for the static partition
    blurry_dynamic: dict        # keys 's','d','full' for the dynamic partition
    latent_p_st: list           # (M,N) staticness samples of all latent rays
    lorr_rays: int = 0          # latent rays refined by the local MLP


def _colors(res: RenderResult) -> dict:
    return {"s": res.color_static, "d": res.color_dynamic, "full": res.color_full}


def _select_colors(res: dict, start: int, length: int) -> dict:
    return {k: ad.narrow(v, start, length, axis=0) for k, v in res.items()}


def blurry_render(model: SceneModel, base_rays: RayBatch, n_samples: int,
                  rng: np.random.Generator | None = None,
                  mask_override: np.ndarray | None = None) -> BlurryRender:
    """Render the base rays and the full latent bundle; average per branch.

    The base-ray motion mask picks the branch once per base ray: static rows
    use the global latent rays as-is, dynamic rows get the local refinement
    before rendering. Averages are taken separately over the static, dynamic
    and full composites. ``mask_override`` substitutes the predicted mask
    (testing/gradient-check hook).
    """
    base = render_rays(model, base_rays, n_samples, rng)
    mask = motion_mask(base.p_dy) if mask_override is None else np.asarray(mask_override)
    static_idx = np.where(mask == 0)[0]
    dynamic_idx = np.where(mask == 1)[0]
    n_latent = model.config.n_latent

    base_cols = _colors(base)
    if n_latent == 0:
        return BlurryRender(
            base=base, mask=mask, static_idx=static_idx, dynamic_idx=dynamic_idx,
            blurry_static={k: _gather_rows(v, static_idx) for k, v in base_cols.items()},
            blurry_dynamic={k: _gather_rows(v, dynamic_idx) for k, v in base_cols.items()},
            latent_p_st=[],
        )

    latent = gmrp(model, base_rays)
    bundle_parts = []     # RayBatch segments, rendered in one pass
    segments = []         # (partition, q, length)
    lorr_rays = 0
    for q, rays_q in enumerate(latent):
        if len(static_idx):
            bundle_parts.append(rays_q.select(static_idx))
            segments.append(("static", q, len(static_idx)))
        if len(dynamic_idx):
            bundle_parts.append(lorr(model, rays_q.select(dynamic_idx)))
            segments.append(("dynamic", q, len(dynamic_idx)))
            lorr_rays += len(dynamic_idx)

    merged = _concat_rays(bundle_parts)
    latent_res = render_rays(model, merged, n_samples, rng)
    latent_cols = _colors(latent_res)

    start = 0
    static_latents = {k: [] for k in base_cols}
    dynamic_latents = {k: [] for k in base_cols}
    for part, _q, length in segments:
        cols = _select_colors(latent_cols, start, length)
        dest = static_latents if part == "static" else dynamic_latents
        for k in base_cols:
            dest[k].append(cols[k])
        start += length

    blurry_static = {
        k: blur_average(_gather_rows(base_cols[k], static_idx), static_latents[k])
        for k in base_cols}
    blurry_dynamic = {
        k: blur_average(_gather_rows(base_cols[k], dynamic_idx), dynamic_latents[k])
        for k in base_cols}

    return BlurryRender(
        base=base, mask=mask, static_idx=static_idx, dynamic_idx=dynamic_idx,
        blurry_static=blurry_static, blurry_dynamic=blurry_dynamic,
        latent_p_st=[latent_res.p_st_samples], lorr_rays=lorr_rays,
    )


def _gather_rows(x, idx):
    return ad.gather(x, idx, axis=0)


def _concat_rays(parts: list[RayBatch]) -> RayBatch:
    first = parts[0]
    return RayBatch(
        origins=ad.concat([p.origins for p in parts], axis=0),
        dirs=ad.concat([p.dirs for p in parts], axis=0),
        pix_dirs=ad.concat([p.pix_dirs for p in parts], axis=0),
        t=np.concatenate([p.t for p in parts]),
        uv=np.concatenate([p.uv for p in parts]),
        near=first.near,
        far=first.far,
    )
