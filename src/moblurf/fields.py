"""Learnable scene components.

Houses the static net (color, density, staticness probability), the dynamic
net (time-conditioned color and density), the local object-motion MLP, the
per-frame GLO codes, and the screw-axis embedding tables. Each net is one
:func:`autodiff.mlp` node: its trunk carries its heads, which run inside
the trunk's row blocks (:meth:`Mlp.with_heads`). Everything lives in one
ParamStore under these groups:

  static      static net weights
  dynamic     dynamic net weights + GLO codes
  local       local object-motion MLP weights
  screw_base  per-frame base-ray screws (one 6-vector per frame)
  screw_global per-frame, per-latent-ray screws
"""

from __future__ import annotations

import copy
import json
import os
import struct
from dataclasses import dataclass, asdict
from functools import cached_property
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .optim import ParamStore

CHECKPOINT_MAGIC = b"MBRFCKP1"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


@dataclass
class FieldConfig:
    """Architecture and encoding hyperparameters."""

    n_frames: int
    n_latent: int = 6
    pos_freqs: int = 8
    dir_freqs: int = 4
    glo_dim: int = 8
    ray_samples: int = 32
    ray_freqs: int = 2
    trunk_depth: int = 9
    trunk_width: int = 256
    rgb_depth: int = 2
    rgb_width: int = 128
    local_depth: int = 8
    local_width: int = 128

    def __post_init__(self):
        for name, v in asdict(self).items():
            least = 0 if name == "n_latent" else 1
            if not isinstance(v, int) or isinstance(v, bool) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")

    @property
    def pos_dim(self) -> int:
        return 3 + 6 * self.pos_freqs

    @property
    def dir_dim(self) -> int:
        return 3 + 6 * self.dir_freqs

    @property
    def ray_embed_dim(self) -> int:
        return self.ray_samples * (3 + 6 * self.ray_freqs)


# rows per block of :func:`encode_position`. Per 8192 x 3 input at L = 8, in
# blocks of 512, 1024, 2048, 4096 and 8192 rows, the forward took 3.00,
# 2.49, 2.50, 2.48 and 2.74 ms and the gradient 1.81, 1.71, 1.78, 1.96 and
# 5.10 ms (medians, one thread, AVX-512 Xeon): the gradient's two
# feature-major blocks, 0.8 MiB each at 2048 rows, fit a 2 MiB L2. The bits
# do not depend on it
ENCODE_BLOCK = 2048


def encode_position(x, num_freqs: int, dtype=np.float64):
    """[x, sin(2^k pi x), cos(2^k pi x)] for k = 0..L-1 along the last axis.

    One node, whose value is float64, when ``x`` is one. A plain ``x``
    gives a plain array in ``dtype``: the float64 entries rounded to it as
    each block is copied out, byte for byte the float64 encoding cast to
    ``dtype``. A graph-free render asks for its fields' float32
    (``ParamStore.field_dtype``), so both fields read one float32 copy of
    its samples (see :func:`autodiff.mlp`).

    The forward takes one sin and one cos, of pi x, and gets each
    higher octave from the one below by the double angle:
    sin 2a = 2 sin a cos a, cos 2a = (cos a - sin a)(cos a + sin a). The
    rounding error doubles with each octave, as the error of sin(2^k pi x)
    taken directly grows with its rounded argument, so both are about as
    accurate. The gradient reads sin and cos back from the output.

    Both run in blocks of :data:`ENCODE_BLOCK` rows. A block is worked
    on feature-major, as a (width, rows) array whose octaves are contiguous
    rows in cache, and copied out of it (forward) or into it (gradient)
    transposed, once. Every entry is computed as over all rows, by the same
    operations in the same order, in float64.
    """
    xv = ad.value_of(x)
    *lead, d = xv.shape
    freqs = np.pi * 2.0 ** np.arange(num_freqs)
    width = d * (1 + 2 * num_freqs)
    out = np.empty((*lead, width), np.float64 if isinstance(x, ad.Node) else dtype)
    rows = xv.reshape(-1, d)
    n = len(rows)
    flat = out.reshape(n, width)                            # a view of out
    blocks = [slice(lo, lo + ENCODE_BLOCK) for lo in range(0, n, ENCODE_BLOCK)]
    span = min(n, ENCODE_BLOCK)
    # octave k's sin and cos as rows of a feature-major block
    sin_at = [slice(d * (1 + 2 * k), d * (2 + 2 * k)) for k in range(num_freqs)]
    cos_at = [slice(d * (2 + 2 * k), d * (3 + 2 * k)) for k in range(num_freqs)]
    fm = np.empty((width, span))
    for blk in blocks:
        t = fm[:, :len(rows[blk])]
        t[:d] = rows[blk].T
        # pi x in the first sin rows, then its cos, then its sin in place
        np.multiply(t[:d], np.pi, out=t[sin_at[0]])
        np.cos(t[sin_at[0]], out=t[cos_at[0]])
        np.sin(t[sin_at[0]], out=t[sin_at[0]])
        for k in range(1, num_freqs):
            s, c = t[sin_at[k]], t[cos_at[k]]
            s0, c0 = t[sin_at[k - 1]], t[cos_at[k - 1]]
            np.multiply(2.0, s0, out=s)
            s *= c0
            np.subtract(c0, s0, out=c)
            c *= c0 + s0
        flat[blk] = t.T

    def vjp(g):
        g = g.reshape(n, width)
        dx = np.empty(rows.shape)
        gfm, ofm = np.empty((width, span)), np.empty((width, span))
        for blk in blocks:
            gt, ot = gfm[:, :len(rows[blk])], ofm[:, :len(rows[blk])]
            gt[:] = g[blk].T
            ot[:] = flat[blk].T
            # x's columns first, then one frequency at a time, as a chain of
            # per-frequency sin and cos nodes would sum them
            acc = gt[:d]
            for k in range(num_freqs):
                term = gt[sin_at[k]] * ot[cos_at[k]]
                term -= gt[cos_at[k]] * ot[sin_at[k]]
                term *= freqs[k]
                acc += term
            dx[blk] = acc.T
        return dx.reshape(xv.shape)

    return ad._make(out, [(x, vjp)])


def init_mlp(store: ParamStore, prefix: str, group: str, sizes,
             rng: np.random.Generator, zero_last: bool = False) -> None:
    """Add the weights ``prefix.{i}.w``/``.b`` of a fully connected stack
    with layer widths ``sizes`` to ``store``: uniform He-style weights, zero
    biases, and an all-zero last layer with ``zero_last``."""
    n_layers = len(sizes) - 1
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        if zero_last and i == n_layers - 1:
            w = np.zeros((fan_in, fan_out))
        else:
            bound = np.sqrt(6.0 / fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        store.add(f"{prefix}.{i}.w", w, group)
        store.add(f"{prefix}.{i}.b", np.zeros(fan_out), group)


class Mlp:
    """Fully connected stack over the ``prefix.{i}.w``/``.b`` parameters of a
    store, evaluated as one :func:`autodiff.mlp` node: a relu between
    layers and, once :meth:`with_heads` binds heads, after the last one too."""

    # no per-ray operand until :meth:`per_ray` binds one, no heads until
    # :meth:`with_heads` does
    u = None
    k = 1
    heads = ()

    def __init__(self, store: ParamStore, prefix: str):
        self.store = store
        self.prefix = prefix
        self.n_layers = 0
        while f"{prefix}.{self.n_layers}.w" in store.values:
            self.n_layers += 1

    def per_ray(self, u, k: int) -> "Mlp":
        """This stack with the per-ray rows ``u`` joined to the input of
        each run of ``k`` consecutive rows (see :func:`autodiff.mlp`); the
        first weight's trailing rows are ``u``'s. A new binding: ``self``
        is left as it is, and the call keeps its one argument, the rows
        that ``perfbench/tracer.py`` counts."""
        bound = copy.copy(self)
        bound.u, bound.k = u, k
        return bound

    def with_heads(self, *heads: "Mlp") -> "Mlp":
        """This stack with ``heads`` reading its last layer inside its node,
        each with its own per-ray binding, relus between its layers and a
        linear output: the call returns their outputs side by side (see
        :func:`autodiff.mlp`). A new binding, as with :meth:`per_ray`."""
        bound = copy.copy(self)
        bound.heads = heads
        return bound

    def layers(self) -> list:
        """The ``(w, b)`` pairs, as the store's leaves for this step."""
        leaf, p = self.store.leaf, self.prefix
        return [(leaf(f"{p}.{i}.w"), leaf(f"{p}.{i}.b")) for i in range(self.n_layers)]

    def __call__(self, x):
        return ad.mlp(x, self.layers(), u=self.u, k=self.k,
                      heads=[(h.layers(), h.u, h.k) for h in self.heads])


class FieldSamples:
    """A field's output at ``k`` samples per ray, one row per sample: the
    pre-activation columns of its heads, in the order ``heads`` names them
    (``color`` 3 wide, ``sigma`` and ``p_st`` 1 wide). Each head is decoded
    on first read, one row per ray, (B,k,3) or (B,k): colours and
    staticness by sigmoid, densities by softplus, so an output nothing
    reads builds no node. Unpacks to the decoded heads in that order."""

    WIDTH = {"color": 3, "sigma": 1, "p_st": 1}

    def __init__(self, out, heads: tuple, k: int):
        self.out, self.heads, self.k = out, heads, k

    def _head(self, name: str, activation):
        start = sum(self.WIDTH[h] for h in self.heads[:self.heads.index(name)])
        width = self.WIDTH[name]
        col = ad.narrow(self.out, start, width, axis=1)
        return activation(ad.reshape(col, (-1, self.k, width) if width > 1 else (-1, self.k)))

    @cached_property
    def color(self):
        return self._head("color", ad.sigmoid)

    @cached_property
    def sigma(self):
        return self._head("sigma", ad.softplus)

    @cached_property
    def p_st(self):
        return self._head("p_st", ad.sigmoid)

    def values(self) -> "FieldSamples":
        """The same samples, detached: ``self`` when they carry no graph."""
        if not isinstance(self.out, ad.Node):
            return self
        return FieldSamples(self.out.value, self.heads, self.k)

    def rows(self, idx: np.ndarray, k: int) -> "FieldSamples":
        """The samples of rows ``idx``, ``k`` per ray: one row gather."""
        return FieldSamples(ad.gather(self.out, idx), self.heads, k)

    def __iter__(self):
        return (getattr(self, head) for head in self.heads)


class SceneModel:
    """All trainable pieces plus their evaluation functions.

    Evaluation is pure given a parameter snapshot: call
    ``store.begin_step()`` before each training forward pass so parameter
    leaves pick up current values. Parameters of frozen groups enter as
    constants (see :meth:`ParamStore.leaf`).
    """

    def __init__(self, config: FieldConfig, rng: np.random.Generator):
        # every process that trains or renders holds a model: all of them
        # keep their freed graphs' memory for the next step or frame chunk
        ad.keep_freed_memory()
        self.config = config
        self.store = ParamStore()
        self._init_params(rng)
        self._bind()

    def _init_params(self, rng: np.random.Generator):
        cfg = self.config
        st = self.store
        trunk = [cfg.trunk_width] * cfg.trunk_depth
        rgb = [cfg.trunk_width + cfg.dir_dim] + [cfg.rgb_width] * (cfg.rgb_depth - 1) + [3]
        local = [cfg.ray_embed_dim + cfg.glo_dim] + [cfg.local_width] * cfg.local_depth + [6]
        # static: trunk(gamma(x)) -> heads
        init_mlp(st, "static.trunk", "static", [cfg.pos_dim] + trunk, rng)
        init_mlp(st, "static.sigma", "static", [cfg.trunk_width, 1], rng)
        init_mlp(st, "static.rgb", "static", rgb, rng)
        # staticness head starts at exactly sigmoid(1) ~ 0.73 everywhere
        # (zero weights, positive bias): the motion mask opens all-static and
        # dynamic regions must win territory through the photometric terms
        init_mlp(st, "static.pst", "static", [cfg.trunk_width, 1], rng, zero_last=True)
        st.values["static.pst.0.b"][:] = 1.0
        # dynamic: trunk(gamma(x), glo(t)) -> heads
        init_mlp(st, "dynamic.trunk", "dynamic", [cfg.pos_dim + cfg.glo_dim] + trunk, rng)
        init_mlp(st, "dynamic.sigma", "dynamic", [cfg.trunk_width, 1], rng)
        init_mlp(st, "dynamic.rgb", "dynamic", rgb, rng)
        st.add("glo", rng.normal(0.0, 0.01, size=(cfg.n_frames, cfg.glo_dim)), "dynamic")
        # near-empty initial density: surfaces condense faster than a fog
        # that must first be carved away
        st.values["static.sigma.0.b"][:] = -2.0
        st.values["dynamic.sigma.0.b"][:] = -2.0
        # local object-motion MLP: zero-init last layer -> identity refinement
        init_mlp(st, "local.mlp", "local", local, rng, zero_last=True)
        # screw tables start at zero: identity warp
        st.add("screw.base", np.zeros((cfg.n_frames, 6)), "screw_base")
        st.add("screw.global", np.zeros((cfg.n_frames * max(cfg.n_latent, 1), 6)),
               "screw_global")

    def _bind(self):
        # the trunks carry their heads inside their node, and so end in
        # their relu (see the field evaluations below)
        self.static_trunk = Mlp(self.store, "static.trunk")
        self.static_sigma = Mlp(self.store, "static.sigma")
        self.static_rgb = Mlp(self.store, "static.rgb")
        self.static_pst = Mlp(self.store, "static.pst")
        self.dynamic_trunk = Mlp(self.store, "dynamic.trunk")
        self.dynamic_sigma = Mlp(self.store, "dynamic.sigma")
        self.dynamic_rgb = Mlp(self.store, "dynamic.rgb")
        self.local_mlp = Mlp(self.store, "local.mlp")

    # field evaluation -------------------------------------------------------

    def static_eval_encoded(self, enc_x, enc_d, k: int):
        """(color, sigma, p_st) samples at encoded points ``enc_x``, ``k``
        per ray, viewed along their rays' encoded unit directions ``enc_d``
        (see :func:`encode_position`): one node, the trunk and its RGB,
        sigma and staticness heads."""
        return FieldSamples(self.static_trunk.with_heads(
            self.static_rgb.per_ray(enc_d, k), self.static_sigma, self.static_pst)(enc_x),
            ("color", "sigma", "p_st"), k)

    def dynamic_density(self, enc_x, glo, k: int):
        """(sigma,) samples of the dynamic net at encoded points, ``k`` per
        ray, conditioned on the GLO rows ``glo`` of their rays' frames (see
        :meth:`glo_lookup`): one node, the trunk and its sigma head alone."""
        return FieldSamples(self.dynamic_trunk.per_ray(glo, k).with_heads(
            self.dynamic_sigma)(enc_x), ("sigma",), k)

    def dynamic_eval_encoded(self, enc_x, enc_d, glo, k: int):
        """(color, sigma) samples at encoded points, ``k`` per ray, and
        their rays' encoded directions, conditioned on the GLO rows ``glo``
        of their rays' frames: one node, the trunk and its RGB and sigma
        heads."""
        return FieldSamples(self.dynamic_trunk.per_ray(glo, k).with_heads(
            self.dynamic_rgb.per_ray(enc_d, k), self.dynamic_sigma)(enc_x),
            ("color", "sigma"), k)

    def glo_lookup(self, t_idx):
        self._check_t(t_idx)
        return ad.gather(self.store.leaf("glo"), np.asarray(t_idx, dtype=np.int64))

    def _check_t(self, t_idx):
        t = np.asarray(t_idx)
        if t.size and (t.min() < 0 or t.max() >= self.config.n_frames):
            raise IndexError(
                f"frame index out of range [0, {self.config.n_frames}): "
                f"{int(t.min())}..{int(t.max())}")

    # ray-level pieces ---------------------------------------------------------

    def ray_embedding(self, origins, dirs, near: float, far: float):
        """Fixed-size code for a ray: encoded points at uniform distances.

        Samples ``ray_samples`` points evenly over [near, far] along the unit
        direction, positionally encodes each with ``ray_freqs`` frequencies,
        and concatenates. Sensitive to both origin and direction.
        """
        if near >= far:
            raise ValueError(f"ray embedding needs near < far, got {near} >= {far}")
        cfg = self.config
        n = ad.value_of(origins).shape[0]
        k = cfg.ray_samples
        dists = np.linspace(near, far, k).reshape(1, k, 1)
        pts = ad.add(ad.reshape(origins, (n, 1, 3)),
                     ad.mul(ad.reshape(dirs, (n, 1, 3)), dists))
        enc = encode_position(ad.reshape(pts, (n * k, 3)), cfg.ray_freqs)
        return ad.reshape(enc, (n, cfg.ray_embed_dim))

    def local_screw(self, origins, dirs, t_idx, near: float, far: float):
        """Per-ray refinement screw from the local object-motion MLP."""
        phi = self.ray_embedding(origins, dirs, near, far)
        glo = self.glo_lookup(t_idx)
        return self.local_mlp(ad.concat([phi, glo], axis=-1))

    def base_screws(self, t_idx):
        """(omega, v) rows of the base screw table for frame indices t_idx."""
        self._check_t(t_idx)
        table = self.store.leaf("screw.base")
        rows = ad.gather(table, np.asarray(t_idx, dtype=np.int64))
        return ad.narrow(rows, 0, 3, axis=1), ad.narrow(rows, 3, 3, axis=1)

    def global_screws(self, t_idx, q):
        """(omega, v) rows of the q-th global screw for frame indices t_idx;
        ``q`` is one latent index or one per row."""
        self._check_t(t_idx)
        n = max(self.config.n_latent, 1)
        q = np.asarray(q, dtype=np.int64)
        if q.size and (q.min() < 0 or q.max() >= n):
            raise IndexError(f"latent ray index {q} out of range")
        flat = np.asarray(t_idx, dtype=np.int64) * n + q
        table = self.store.leaf("screw.global")
        rows = ad.gather(table, flat)
        return ad.narrow(rows, 0, 3, axis=1), ad.narrow(rows, 3, 3, axis=1)


# ---------------------------------------------------------------------------
# checkpoint file format: magic, u32 header length, JSON header, float64
# little-endian array payload in header order.


# the arrays stored per parameter, in file order, and the ParamStore dict
# that holds each
ARRAY_KINDS = {"value": "values", "adam_m": "adam_m", "adam_v": "adam_v"}


def save_checkpoint(path, model: SceneModel, extra_meta: dict | None = None):
    store = model.store
    arrays = []
    blobs = []
    for name in sorted(store.values):
        for kind, attr in ARRAY_KINDS.items():
            arr = np.ascontiguousarray(getattr(store, attr)[name], dtype="<f8")
            arrays.append({"name": name, "kind": kind, "shape": list(arr.shape)})
            blobs.append(arr.tobytes())
    header = {
        "version": CHECKPOINT_VERSION,
        "field_config": asdict(model.config),
        "groups": store.group_of,
        "adam_t": store.adam_t,
        "meta": extra_meta or {},
        "arrays": arrays,
    }
    raw = json.dumps(header).encode("utf-8")
    # write beside the target, then rename over it: a write that fails
    # midway leaves the previous file at ``path`` intact
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            for blob in blobs:
                f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Restore a SceneModel (with optimizer state) and its metadata dict.

    The header must list the arrays of a model built from its
    ``field_config``, in ``save_checkpoint``'s order, with their shapes and
    groups; the payload must end after the last of them, and ``meta`` must
    be an object. A ``field_config`` that names the trunk activation, as
    those written before relu became the only one do, must name relu."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        size = f.read(4)
        hlen = int.from_bytes(size, "little")
        raw = f.read(hlen)
        if len(size) + len(raw) != 4 + hlen:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
            if header["version"] != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version {header['version']}")
            listed = [(a["name"], a["kind"], a["shape"]) for a in header["arrays"]]
            adam_t = {k: int(v) for k, v in header["adam_t"].items()}
            field_config = dict(header["field_config"])
            if field_config.pop("activation", "relu") != "relu":
                raise CheckpointError(f"{path}: trunk activation is not relu")
            model = SceneModel(FieldConfig(**field_config), np.random.default_rng(0))
            store = model.store
            if (listed != [(name, kind, list(store.values[name].shape))
                           for name in sorted(store.values) for kind in ARRAY_KINDS]
                    or header["groups"] != store.group_of
                    or adam_t.keys() != store.values.keys()):
                raise CheckpointError(f"{path}: the arrays are not those of its "
                                      f"field_config")
            meta = header["meta"]
            if not isinstance(meta, dict):
                raise CheckpointError(f"{path}: meta is not an object")
        except KeyError as exc:
            raise CheckpointError(f"{path}: header has no {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
        for name, kind, shape in listed:
            count = int(np.prod(shape))
            data = f.read(8 * count)
            if len(data) != 8 * count:
                raise CheckpointError(f"{path}: truncated payload at {name}")
            getattr(store, ARRAY_KINDS[kind])[name] = \
                np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
        if f.read(1):
            raise CheckpointError(f"{path}: data after the last array")
        store.adam_t = adam_t
    return model, meta
