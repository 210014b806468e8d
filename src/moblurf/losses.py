"""Training objectives.

All losses are means over the ray batch rather than raw sums, so the
weighting constants are batch-size independent. One photometric term
serves the masked static fit and the unmasked dynamic and full ones.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

DEGENERATE_CROSS_NORM = 1e-8


def photometric(rendered, target, mask=None):
    """Mean over the batch of per-ray squared color error. A ray whose
    ``mask`` (binary, gradient-detached) is 1 contributes exactly zero; the
    denominator stays the full batch size."""
    diff = ad.sub(rendered, target)
    if mask is not None:
        diff = ad.mul(diff, (1.0 - ad.value_of(mask)).reshape(-1, 1))
    n = ad.value_of(rendered).shape[0]
    return ad.div(ad.sum_(ad.mul(diff, diff)), float(max(n, 1)))


def staticness_max(p_st, lam: float):
    """Pull staticness probabilities toward 1: lam * mean |log p_st|, which
    is -lam * mean log p_st, as every p_st lies in (0, 1]. A saturated
    sigmoid gives exactly 1, where the term is 0 with a finite gradient."""
    vals = ad.value_of(p_st)
    if vals.size and (vals.min() <= 0.0 or vals.max() > 1.0):
        raise ValueError("staticness probabilities must lie in (0, 1]")
    return ad.mul(ad.mean(ad.log(p_st)), -lam)


def surface_points(origins, dirs, scalars):
    """origin + scalar * direction, batched over rows."""
    s = ad.reshape(scalars, (-1, 1))
    return ad.add(origins, ad.mul(dirs, s))


def local_geometry_cross(x0, xu, xv):
    """Unnormalized local surface normal from forward differences.

    Returns the cross product (K,3) and a boolean (K,) flag marking rows
    whose norm clears the degeneracy threshold.
    """
    cr = ad.cross3(ad.sub(xu, x0), ad.sub(xv, x0))
    norms = np.linalg.norm(ad.value_of(cr), axis=-1)
    return cr, norms >= DEGENERATE_CROSS_NORM


def local_geometry_unit(origins3, dirs3, scalars3):
    """Unit local-geometry vector per pixel, or a degenerate flag.

    Each argument is a 3-tuple of (K, ...) arrays for the pixel, its right
    neighbor, and its down neighbor. Degenerate rows come back as zeros with
    flag False.
    """
    pts = [surface_points(o, d, s) for o, d, s in zip(origins3, dirs3, scalars3)]
    cr, ok = local_geometry_cross(*pts)
    vals = ad.value_of(cr)
    out = np.zeros_like(vals)
    if ok.any():
        sel = vals[ok]
        out[ok] = sel / np.linalg.norm(sel, axis=-1, keepdims=True)
    return out, ok


def lg_loss(cross_pred, ok_pred, cross_true, ok_true, n_pixels: int, lam: float):
    """Local geometry variance distillation.

    Mean over the supervised pixels of ||g_hat - g||^2 between the two unit
    vectors; a pixel where either side is degenerate contributes zero.
    """
    ok = np.asarray(ok_pred) & np.asarray(ok_true)
    if not ok.any():
        return ad.mul(ad.sum_(ad.mul(cross_pred, 0.0)), 0.0)  # zero, in-graph
    idx = np.where(ok)[0]
    g_pred = ad.normalize3(ad.gather(cross_pred, idx))
    g_true = ad.normalize3(ad.gather(ad.value_of(cross_true), idx))
    diff = ad.sub(g_pred, g_true)
    return ad.mul(ad.div(ad.sum_(ad.mul(diff, diff)), float(max(n_pixels, 1))), lam)
