"""Training objectives.

All losses are means over the ray batch rather than raw sums, so the
weighting constants are batch-size independent. The photometric terms
return per-batch sums too (``*_sum``) so a caller that split the batch into
masked partitions can recombine them under one denominator.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

DEGENERATE_CROSS_NORM = 1e-8


def photometric_sum(rendered, target):
    """Sum over rays of squared color error (summed over channels)."""
    diff = ad.sub(rendered, target)
    return ad.sum_(ad.mul(diff, diff))


def photometric(rendered, target):
    """Mean over the batch of per-ray squared color error."""
    n = ad.value_of(rendered).shape[0]
    return ad.div(photometric_sum(rendered, target), float(max(n, 1)))


def masked_photometric(rendered, target, mask):
    """Photometric error restricted to rays with mask == 0, batch mean.

    ``mask`` is a binary, gradient-detached array; masked rays contribute
    exactly zero, the denominator stays the full batch size.
    """
    mask = np.asarray(ad.value_of(mask))
    keep = (1.0 - mask.astype(np.float64)).reshape(-1, 1)
    diff = ad.mul(ad.sub(rendered, target), keep)
    n = ad.value_of(rendered).shape[0]
    return ad.div(ad.sum_(ad.mul(diff, diff)), float(max(n, 1)))


def staticness_max(p_st, lam: float):
    """Pull staticness probabilities toward 1: lam * mean |log p_st|."""
    vals = ad.value_of(p_st)
    if vals.size and (vals.min() <= 0.0 or vals.max() >= 1.0):
        raise ValueError("staticness probabilities must lie strictly in (0, 1)")
    return ad.mul(ad.mean(ad.absolute(ad.log(p_st))), lam)


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
    g_pred = ad.normalize3(ad.gather(cross_pred, idx, axis=0))
    g_true = ad.normalize3(ad.gather(ad.value_of(cross_true), idx, axis=0))
    diff = ad.sub(g_pred, g_true)
    return ad.mul(ad.div(ad.sum_(ad.mul(diff, diff)), float(max(n_pixels, 1))), lam)
