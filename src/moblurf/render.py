"""Ray sampling and volume rendering.

The full-scene composite blends the static and dynamic fields through the
staticness probability: transmittance decays through both fields at once,

    T_n = prod_{k<n} (1 - p_k a^s_k) (1 - (1 - p_k) a^d_k),

and each sample contributes its static and dynamic colors weighted by
p_k and (1 - p_k). Each field's opacities a = 1 - exp(-sigma delta) are
taken once per render and serve both its own composite and the full one;
a field's own weights and the full transmittance are each built once, and
only when an output reads them, and the detached full-model weights read
the values of that one transmittance. Per-ray dynamicness is the
probability-weighted mass of (1 - p) over the full-model compositing
weights.

Functions take either ndarrays or autodiff Nodes and run the identical
arithmetic on both. Training renders with graph leaves for its unfrozen
parameter groups; inference freezes every group, so the field weights are
plain arrays and no op builds a node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .cameras import RayBatch
from .fields import SceneModel, encode_position


# share of each ray's proposal mass spread uniformly over [near, far], so a
# proposal grid keeps samples where the base render saw nothing
UNIFORM_FLOOR = 0.25


@dataclass
class SampleGrid:
    """N segments per ray over [near, far]: boundaries, sample distances,
    lengths. A uniform grid shares its boundaries (N+1,) and lengths (N,)
    between rays; a proposal grid holds one row of each per ray."""

    edges: np.ndarray    # (N+1,) or (B, N+1) strictly increasing boundaries
    dists: np.ndarray    # (B, N) sample distance per ray and segment
    deltas: np.ndarray   # (N,) or (B, N) segment lengths

    @property
    def n_samples(self) -> int:
        return self.deltas.shape[-1]

    def select(self, rows: np.ndarray) -> "SampleGrid":
        """The grid of the rays ``rows``."""
        if self.deltas.ndim == 1:
            return replace(self, dists=self.dists[rows])
        return SampleGrid(self.edges[rows], self.dists[rows], self.deltas[rows])


def _draw(edges: np.ndarray, batch: int, rng) -> np.ndarray:
    """One point per segment of ``edges`` (distances or masses) and ray: a
    uniform draw inside it with ``rng``, its midpoint without."""
    lo, hi = edges[..., :-1], edges[..., 1:]
    if rng is None:
        return np.broadcast_to(0.5 * (lo + hi), (batch, lo.shape[-1])).copy()
    return lo + rng.random((batch, lo.shape[-1])) * (hi - lo)


def sample_along_ray(near: float, far: float, n: int, batch: int,
                     rng: np.random.Generator | None = None) -> SampleGrid:
    """Uniform bins over [near, far]; one jittered draw per bin when ``rng``
    is given (training), deterministic midpoints otherwise (inference)."""
    if n < 1:
        raise ValueError(f"need at least one sample per ray, got {n}")
    if not 0 < near < far:
        raise ValueError(f"invalid ray bounds near={near} far={far}")
    edges = near + (far - near) * np.arange(n + 1) / n
    return SampleGrid(edges=edges, dists=_draw(edges, batch, rng), deltas=np.diff(edges))


def sample_from_weights(weights: np.ndarray, grid: SampleGrid, k: int,
                        rng: np.random.Generator | None = None
                        ) -> tuple[np.ndarray, SampleGrid]:
    """A k-segment grid per ray from the compositing weights ``weights``
    (B,N) of a render on the uniform ``grid``, whose samples it reuses:
    hierarchical sampling.

    Each ray's normalized weights, mixed with the uniform density over
    [near, far] at share ``UNIFORM_FLOOR``, form a piecewise-constant pdf;
    its inverse CDF cuts [near, far] into k segments of equal mass. Each
    segment gets one mass target, drawn as :func:`sample_along_ray` draws a
    distance (a jittered one with ``rng``, its midpoint without), and takes
    the sample of the ``grid`` segment that target falls in. Returns those
    picks (B,k), non-decreasing along each ray, and the grid of the k
    segments at the picked samples' distances. A segment holding more than
    1/k of a ray's mass is picked more than once, harmlessly: two cells of
    one sample composite as one cell of their summed length."""
    if k < 1:
        raise ValueError(f"need at least one sample per ray, got {k}")
    edges = grid.edges
    lengths = np.diff(edges)
    total = weights.sum(axis=-1, keepdims=True)
    share = np.divide(weights, total, out=np.zeros_like(weights), where=total > 0)
    pdf = (1.0 - UNIFORM_FLOOR) * share + UNIFORM_FLOOR * lengths / (edges[-1] - edges[0])
    cdf = np.zeros((len(weights), len(edges)))
    np.cumsum(pdf, axis=-1, out=cdf[:, 1:])
    cdf /= cdf[:, -1:]

    def segment(mass):
        """The base segment each mass target, (k+1,) or (B,k), falls in."""
        return (cdf[:, None, :-1] <= mass[..., None]).sum(axis=-1) - 1

    # each cut: the base segment its mass falls in, and the point in it
    targets = np.arange(k + 1) / k
    j = segment(targets)
    lo = np.take_along_axis(cdf, j, axis=-1)
    mass = np.take_along_axis(cdf, j + 1, axis=-1) - lo
    out = edges[j] + (targets - lo) / mass * lengths[j]
    out[:, 0], out[:, -1] = edges[0], edges[-1]
    picks = segment(_draw(targets, len(weights), rng))
    return picks, SampleGrid(edges=out, dists=np.take_along_axis(grid.dists, picks, axis=-1),
                             deltas=np.diff(out))


def _alpha(sigmas, grid: SampleGrid):
    """alpha = 1 - exp(-sigma delta): (B,N)."""
    return ad.sub(1.0, ad.exp(ad.mul(sigmas, -grid.deltas)))


def _weights(alpha):
    """Compositing weights T alpha, with T the exclusive product of
    (1 - alpha): (B,N)."""
    return ad.mul(ad.exclusive_cumprod(ad.sub(1.0, alpha)), alpha)


def _shade(weights, colors, n: int):
    """sum_n weights * colors over the N samples of each ray: (B,3)."""
    return ad.sum_(ad.mul(ad.reshape(weights, (-1, n, 1)), colors), axis=1)


def _expected_distance(weights, grid: SampleGrid):
    """sum_n weights * distances over the N samples of each ray: (B,)."""
    return ad.sum_(ad.mul(weights, grid.dists), axis=-1)


def _full_parts(p_st, alpha_s, alpha_d):
    """The full model's transmittance T and its two opacities p a^s and
    (1 - p) a^d: its compositing weights are T p a^s and T (1 - p) a^d."""
    pa_s = ad.mul(p_st, alpha_s)
    pa_d = ad.mul(ad.sub(1.0, p_st), alpha_d)
    factor = ad.mul(ad.sub(1.0, pa_s), ad.sub(1.0, pa_d))
    return ad.exclusive_cumprod(factor), pa_s, pa_d


class RenderResult:
    """Per-ray outputs of a full render of B rays on ``grid`` from the static
    and dynamic fields' samples (``rgb`` (B,N,3), ``sigma`` (B,N) and,
    static only, ``pst`` (B,N)).

    Each output is built on first read, its graph nodes with it, and so is
    each part that outputs share: a field's opacities, and the full
    model's transmittance, which ``color_full`` reads and whose values the
    detached ``w_full`` and ``p_dy`` read. A loss that reads
    ``color_static`` and the motion mask alone (BRI-even) therefore builds
    the full transmittance's nodes without reaching them.

    ``dynamic_cut`` marks dynamic samples, sigma alone, taken at the values
    of sample points that carry a graph: the dynamic, full-colour and kappa
    outputs would then drop the points' gradient, so reading them raises;
    the detached ``w_full`` and ``p_dy`` still serve. :meth:`at`
    re-composites picked samples on a coarser grid, evaluating no field."""

    def __init__(self, static, dynamic, grid: SampleGrid, dynamic_cut: bool = False):
        self._static, self._dynamic, self.grid = static, dynamic, grid
        self._dynamic_cut = dynamic_cut

    def at(self, picks: np.ndarray, grid: SampleGrid) -> "RenderResult":
        """The same rays rendered on ``grid``, whose samples are this
        render's samples ``picks`` (B,k) (see :func:`sample_from_weights`):
        both fields' rows gathered, their graphs shared with this render."""
        rows = (np.arange(len(picks))[:, None] * self.grid.n_samples + picks).reshape(-1)
        k = grid.n_samples
        return RenderResult(self._static.rows(rows, k), self._dynamic.rows(rows, k), grid,
                            self._dynamic_cut)

    @cached_property
    def _alpha_static(self):
        return _alpha(self._static.sigma, self.grid)

    @cached_property
    def _alpha_dynamic(self):
        return _alpha(self._dynamic.sigma, self.grid)

    def _refuse_cut(self):
        if self._dynamic_cut:
            raise RuntimeError("the frozen dynamic net saw the sample points' values; "
                               "its composites would drop their gradient")

    @cached_property
    def color_static(self):
        """(B,3) static composite."""
        return _shade(_weights(self._alpha_static), self._static.rgb,
                      self.grid.n_samples)

    @cached_property
    def color_dynamic(self):
        """(B,3) dynamic composite."""
        return _shade(self.weights_dynamic, self._dynamic.rgb, self.grid.n_samples)

    @cached_property
    def weights_dynamic(self):
        """(B,N) dynamic compositing weights."""
        self._refuse_cut()
        return _weights(self._alpha_dynamic)

    @property
    def p_st_samples(self):
        """(B,N) staticness probabilities."""
        return self._static.pst

    @cached_property
    def _full(self):
        return _full_parts(self.p_st_samples, self._alpha_static, self._alpha_dynamic)

    @cached_property
    def color_full(self):
        """(B,3) full composite: each sample's static and dynamic colours
        weighted by T p a^s and T (1 - p) a^d."""
        self._refuse_cut()
        n = self.grid.n_samples
        trans, pa_s, pa_d = self._full
        contrib = ad.add(
            ad.mul(ad.reshape(ad.mul(trans, pa_s), (-1, n, 1)), self._static.rgb),
            ad.mul(ad.reshape(ad.mul(trans, pa_d), (-1, n, 1)), self._dynamic.rgb))
        return ad.sum_(contrib, axis=1)

    @cached_property
    def _detached(self):
        trans, pa_s, pa_d = map(ad.value_of, self._full)
        w_full = trans * (pa_s + pa_d)
        return w_full, dynamicness(w_full, ad.value_of(self.p_st_samples))

    @property
    def w_full(self) -> np.ndarray:
        """(B,N) full-model compositing weights, detached."""
        return self._detached[0]

    @property
    def p_dy(self) -> np.ndarray:
        """(B,) dynamicness probability, detached."""
        return self._detached[1]

    @cached_property
    def kappa_star(self):
        """(B,) expected dynamic ray distance."""
        return _expected_distance(self.weights_dynamic, self.grid)


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
    rows (B, GLO_DIM): GLO codes are constant along a ray, so the fields
    take them once per ray. Points that carry no graph are encoded in the
    fields' dtype, one copy that both fields read as it is; the GLO rows,
    like the encoded directions, stay float64, as the per-ray operand's
    float64 gradient of its weight rows needs them."""
    enc_x = encode_position(rays.points(grid.dists), model.config.pos_freqs,
                            model.store.field_dtype)
    return enc_x, model.glo_lookup(rays.t)


def render_rays(model: SceneModel, rays: RayBatch, n_samples: int,
                rng: np.random.Generator | None = None) -> RenderResult:
    """Render one ray batch on ``n_samples`` uniform bins per ray."""
    return render_on_grid(model, rays, sample_along_ray(rays.near, rays.far, n_samples,
                                                        len(rays), rng))


def render_on_grid(model: SceneModel, rays: RayBatch, grid: SampleGrid) -> RenderResult:
    """Evaluate both fields at every sample of ``grid`` on every ray and
    composite the batch: the static net's ``rgb``, ``sigma`` and ``pst``
    heads, the dynamic net's ``rgb`` and ``sigma`` (:meth:`SceneModel.field`).

    A frozen dynamic net sees the samples' values, so it builds no node:
    BRI-even freezes it, trains the base screws that move the samples and
    reads only the detached dynamicness, so the net runs its ``sigma`` head
    alone. The result refuses the dynamic outputs whose gradient that
    cuts."""
    n = grid.n_samples
    enc_x, glo = _encoded_samples(model, rays, grid)
    # directions are constant along a ray too: encoded and taken per ray
    enc_d = encode_position(rays.dirs, model.config.dir_freqs)
    static = model.field("static", ("rgb", "sigma", "pst"), enc_x, n, enc_d)
    if "dynamic" in model.store.frozen and isinstance(enc_x, ad.Node):
        sigma = model.field("dynamic", ("sigma",), ad.value_of(enc_x), n, glo=glo)
        return RenderResult(static, sigma, grid, dynamic_cut=True)
    dynamic = model.field("dynamic", ("rgb", "sigma"), enc_x, n, enc_d, glo)
    return RenderResult(static, dynamic, grid)


def render_kappa(model: SceneModel, rays: RayBatch, grid: SampleGrid):
    """Expected dynamic ray distance only (cheap path for neighbor rays),
    at the samples of ``grid``, one row of distances per ray."""
    enc_x, glo = _encoded_samples(model, rays, grid)
    sigma = model.field("dynamic", ("sigma",), enc_x, grid.n_samples, glo=glo).sigma
    return _expected_distance(_weights(_alpha(sigma, grid)), grid)
