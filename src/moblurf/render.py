"""Ray sampling and volume rendering.

The full-scene composite blends the static and dynamic fields through the
staticness probability: transmittance decays through both fields at once,

    T_n = prod_{k<n} (1 - p_k a^s_k) (1 - (1 - p_k) a^d_k),

and each sample contributes its static and dynamic colors weighted by
p_k and (1 - p_k). Each field's opacities a = 1 - exp(-sigma delta) are
taken once (``opacity``) and serve both its own composite and the full
one. Per-ray dynamicness is the probability-weighted mass of (1 - p) over
the full-model compositing weights.

Functions take either ndarrays or autodiff Nodes and run the identical
arithmetic on both. Training renders with graph leaves for its unfrozen
parameter groups; inference freezes every group, so the field weights are
plain arrays and no op builds a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .cameras import RayBatch
from .fields import SceneModel, encode_position


@dataclass
class SampleGrid:
    """N segments over [near, far]: boundaries, sample distances, lengths."""

    edges: np.ndarray    # (N+1,) strictly increasing boundaries
    dists: np.ndarray    # (B, N) sample distance per ray and segment
    deltas: np.ndarray   # (N,) segment lengths

    @property
    def n_samples(self) -> int:
        return len(self.deltas)


def sample_along_ray(near: float, far: float, n: int, batch: int,
                     rng: np.random.Generator | None = None) -> SampleGrid:
    """Uniform bins over [near, far]; one jittered draw per bin when ``rng``
    is given (training), deterministic midpoints otherwise (inference)."""
    if n < 1:
        raise ValueError(f"need at least one sample per ray, got {n}")
    if not 0 < near < far:
        raise ValueError(f"invalid ray bounds near={near} far={far}")
    edges = near + (far - near) * np.arange(n + 1) / n
    deltas = np.diff(edges)
    if rng is None:
        mids = 0.5 * (edges[:-1] + edges[1:])
        dists = np.broadcast_to(mids, (batch, n)).copy()
    else:
        u = rng.random((batch, n))
        dists = edges[:-1] + u * deltas
    return SampleGrid(edges=edges, dists=dists, deltas=deltas)


def opacity(sigmas, grid: SampleGrid):
    """One field's opacities alpha = 1 - exp(-sigma delta) and compositing
    weights T alpha, with T the exclusive product of (1 - alpha): (B,N) each."""
    alpha = ad.sub(1.0, ad.exp(ad.mul(sigmas, -grid.deltas)))
    return alpha, ad.mul(ad.exclusive_cumprod(ad.sub(1.0, alpha), axis=-1), alpha)


def _shade(weights, colors, n: int):
    """sum_n weights * colors over the N samples of each ray: (B,3)."""
    return ad.sum_(ad.mul(ad.reshape(weights, (-1, n, 1)), colors), axis=1)


def composite(colors, sigmas, grid: SampleGrid):
    """Single-field alpha compositing: (color (B,3), weights (B,N))."""
    _, weights = opacity(sigmas, grid)
    return _shade(weights, colors, grid.n_samples), weights


def _expected_distance(weights, grid: SampleGrid):
    """sum_n weights * distances over the N samples of each ray: (B,)."""
    return ad.sum_(ad.mul(weights, grid.dists), axis=-1)


@dataclass
class RenderResult:
    """Per-ray outputs of a full render; color fields may be graph Nodes."""

    color_static: object    # (B,3)
    color_dynamic: object   # (B,3)
    color_full: object      # (B,3)
    p_st_samples: object    # (B,N) staticness probabilities
    p_dy: np.ndarray        # (B,) dynamicness probability, detached
    weights_dynamic: object  # (B,N) dynamic compositing weights
    grid: SampleGrid

    @cached_property
    def kappa_star(self):
        """(B,) expected dynamic ray distance. Built when first read: a
        latent bundle's is read by no loss term."""
        return _expected_distance(self.weights_dynamic, self.grid)


def render_full(static_out, dynamic_out, grid: SampleGrid) -> RenderResult:
    """Compose static, dynamic, and probabilistic full colors for a batch.

    ``static_out``  = (colors (B,N,3), sigmas (B,N), p_st (B,N))
    ``dynamic_out`` = (colors (B,N,3), sigmas (B,N))
    """
    c_s, sigma_s, p_st = static_out
    c_d, sigma_d = dynamic_out
    n = grid.n_samples

    alpha_s, w_s = opacity(sigma_s, grid)
    alpha_d, w_d = opacity(sigma_d, grid)

    pa_s = ad.mul(p_st, alpha_s)
    pa_d = ad.mul(ad.sub(1.0, p_st), alpha_d)
    factor = ad.mul(ad.sub(1.0, pa_s), ad.sub(1.0, pa_d))
    trans_full = ad.exclusive_cumprod(factor, axis=-1)
    contrib = ad.add(ad.mul(ad.reshape(ad.mul(trans_full, pa_s), (-1, n, 1)), c_s),
                     ad.mul(ad.reshape(ad.mul(trans_full, pa_d), (-1, n, 1)), c_d))
    # the full weights only feed the detached dynamicness
    w_full = ad.value_of(trans_full) * (ad.value_of(pa_s) + ad.value_of(pa_d))
    return RenderResult(
        color_static=_shade(w_s, c_s, n),
        color_dynamic=_shade(w_d, c_d, n),
        color_full=ad.sum_(contrib, axis=1),
        p_st_samples=p_st,
        p_dy=dynamicness(w_full, ad.value_of(p_st)),
        weights_dynamic=w_d,
        grid=grid,
    )


def dynamicness(weights_full: np.ndarray, p_st: np.ndarray) -> np.ndarray:
    """Accumulated dynamicness probability per ray (detached).

    The sample distribution p(x_n | r) is the full-model compositing weight,
    normalized to sum 1; rays with negligible total weight report 0.
    """
    wsum = weights_full.sum(axis=-1)
    raw = (weights_full * (1.0 - p_st)).sum(axis=-1)
    out = np.zeros_like(wsum)
    ok = wsum > 1e-8
    out[ok] = raw[ok] / wsum[ok]
    return out


def motion_mask(p_dy: np.ndarray) -> np.ndarray:
    """Binary mask: 1 iff dynamicness strictly exceeds 0.5. No gradient."""
    return (np.asarray(p_dy) > 0.5).astype(np.int64)


def _encoded_samples(model: SceneModel, rays: RayBatch, grid: SampleGrid):
    """Encoded sample points (B*N, pos_dim), ray by ray, and the rays' GLO
    rows (B, glo_dim): GLO codes are constant along a ray, so the fields
    take them once per ray."""
    b, n = len(rays), grid.n_samples
    o3 = ad.reshape(rays.origins, (b, 1, 3))
    d3 = ad.reshape(rays.dirs, (b, 1, 3))
    pts = ad.add(o3, ad.mul(d3, grid.dists.reshape(b, n, 1)))
    enc_x = encode_position(ad.reshape(pts, (b * n, 3)), model.config.pos_freqs)
    return enc_x, model.glo_lookup(rays.t)


def render_rays(model: SceneModel, rays: RayBatch, n_samples: int,
                rng: np.random.Generator | None = None) -> RenderResult:
    """Sample, evaluate both fields at every sample of every ray, and
    composite one ray batch."""
    b, n = len(rays), n_samples
    grid = sample_along_ray(rays.near, rays.far, n, b, rng)
    enc_x, glo = _encoded_samples(model, rays, grid)
    # directions are constant along a ray too: encoded and taken per ray
    enc_d = encode_position(rays.dirs, model.config.dir_freqs)
    c_s, sigma_s, p_st = model.static_eval_encoded(enc_x, enc_d, n)
    c_d, sigma_d = model.dynamic_eval_encoded(enc_x, enc_d, glo, n)
    return render_full((ad.reshape(c_s, (b, n, 3)), ad.reshape(sigma_s, (b, n)),
                        ad.reshape(p_st, (b, n))),
                       (ad.reshape(c_d, (b, n, 3)), ad.reshape(sigma_d, (b, n))), grid)


def render_kappa(model: SceneModel, rays: RayBatch, grid: SampleGrid):
    """Expected dynamic ray distance only (cheap path for neighbor rays),
    at the samples of ``grid``, one row of distances per ray."""
    sigma = model.dynamic_density(*_encoded_samples(model, rays, grid),
                                  grid.n_samples)
    _, weights = opacity(ad.reshape(sigma, (len(rays), grid.n_samples)), grid)
    return _expected_distance(weights, grid)
