"""Learnable scene components.

Houses the static net (heads ``rgb``, ``sigma`` and staticness ``pst``), the
dynamic net (time-conditioned ``rgb`` and ``sigma``), the local object-motion
MLP, the per-frame GLO codes, and the screw-axis embedding tables.
:meth:`SceneModel.field` binds a net's :class:`Mlp` stacks and runs them as one
:func:`autodiff.mlp` node, the heads it names inside the trunk's row blocks.
Everything lives in one ParamStore under these groups:

  static      static net weights
  dynamic     dynamic net weights + GLO codes
  local       local object-motion MLP weights
  screw_base  per-frame base-ray screws (one 6-vector per frame)
  screw_global per-frame, per-latent-ray screws
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .cameras import RayBatch
from .optim import FIELD_PREFIXES, MLP_LR, SCREW_LR, ParamStore

CHECKPOINT_MAGIC = b"MBRFCKP1"
CHECKPOINT_VERSION = 1

# the GLO code's width, the ray embedding's octaves and the colour heads' layers
GLO_DIM, RAY_FREQS, RGB_DEPTH = 8, 2, 2
# keys that older configs and field_configs hold, at the one value each may hold
RETIRED = {"glo_dim": GLO_DIM, "ray_freqs": RAY_FREQS, "rgb_depth": RGB_DEPTH,
           "screw_lr_start": SCREW_LR[0], "screw_lr_end": SCREW_LR[1],
           "mlp_lr_start": MLP_LR[0], "mlp_lr_end": MLP_LR[1], "activation": "relu"}


class CheckpointError(RuntimeError):
    pass


@dataclass
class Architecture:
    """The fields' architecture and encodings, declared once: a
    :class:`FieldConfig` builds a model from them and a run's
    ``TrainConfig`` sets them, at these desk-scale defaults."""

    n_latent: int = 4
    pos_freqs: int = 8
    dir_freqs: int = 4
    ray_samples: int = 32
    trunk_depth: int = 4
    trunk_width: int = 64
    rgb_width: int = 64
    local_depth: int = 4
    local_width: int = 64


@dataclass
class FieldConfig(Architecture):
    """An architecture for ``n_frames`` frames: what a model is built from."""

    n_frames: int = field(kw_only=True)

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
        return self.ray_samples * (3 + 6 * RAY_FREQS)


# rows per block of :func:`encode_position`: a float64 feature-major block,
# 0.8 MiB at 2048 rows and L = 8, and the stored bands the gradient reads
# beside it fit a 2 MiB L2 (timings in CHANGES.md, "sized for OpenBLAS's
# small-matrix sgemm"). The bits do not depend on it
ENCODE_BLOCK = 2048


def encode_position(x, num_freqs: int, dtype=np.float64):
    """[x, sin(2^k pi x), cos(2^k pi x)] for k = 0..L-1 along the last axis.

    One node, whose value is float64, when ``x`` is one. A plain ``x``
    gives a plain array in ``dtype``: the float64 entries rounded to it as
    each block is stored, byte for byte the float64 encoding cast to
    ``dtype``. A graph-free render asks for its fields' float32
    (``ParamStore.field_dtype``), so both fields read one float32 copy of
    its samples (see :func:`autodiff.mlp`).

    The forward takes one sin and one cos, of pi x, and gets each
    higher octave from the one below by the double angle:
    sin 2a = 2 sin a cos a, cos 2a = (cos a - sin a)(cos a + sin a). The
    rounding error doubles with each octave, as the error of sin(2^k pi x)
    taken directly grows with its rounded argument, so both are about as
    accurate.

    The encoding is stored feature-major, one (width, rows) array whose
    octaves are contiguous rows, and returned as its transpose, a view that
    the fields' products read in place with the bits of a row-major copy.
    Both passes run in blocks of :data:`ENCODE_BLOCK` rows, in float64: the
    forward copies each block into the store as it is, and the gradient
    reads sin and cos there and transposes only the output gradient in.
    Every entry is computed as over all rows, by the same operations in the
    same order.
    """
    xv = ad.value_of(x)
    *lead, d = xv.shape
    freqs = np.pi * 2.0 ** np.arange(num_freqs)
    width = d * (1 + 2 * num_freqs)
    rows = xv.reshape(-1, d)
    n = len(rows)
    # the encoding feature-major: row j holds feature j of every input row
    fm = np.empty((width, n), np.float64 if isinstance(x, ad.Node) else dtype)
    blocks = [slice(lo, lo + ENCODE_BLOCK) for lo in range(0, n, ENCODE_BLOCK)]
    span = min(n, ENCODE_BLOCK)
    # octave k's sin and cos as rows of a feature-major block
    sin_at = [slice(d * (1 + 2 * k), d * (2 + 2 * k)) for k in range(num_freqs)]
    cos_at = [slice(d * (2 + 2 * k), d * (3 + 2 * k)) for k in range(num_freqs)]
    buf = np.empty((width, span))
    for blk in blocks:
        t = buf[:, :len(rows[blk])]
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
        fm[:, blk] = t

    def vjp(g):
        g = g.reshape(n, width)
        dx = np.empty(rows.shape)
        gfm = np.empty((width, span))
        for blk in blocks:
            gt, ot = gfm[:, :len(rows[blk])], fm[:, blk]
            gt[:] = g[blk].T
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

    # its transpose, the rows as the caller gave them: a view
    out = fm.T.reshape(*lead, width)
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
    layers and, when ``heads`` read it, after the last one too. ``u`` and
    ``k`` are the per-ray operand and ``heads`` the stacks that read the last
    layer inside the node (see :func:`autodiff.mlp`). A field binds its
    stacks with each call's operands; the call's one argument is the rows
    that ``perfbench/tracer.py`` counts."""

    def __init__(self, store: ParamStore, prefix: str, u=None, k: int = 1,
                 heads: tuple = ()):
        self.store, self.prefix, self.u, self.k, self.heads = store, prefix, u, k, heads
        self.n_layers = 0
        while f"{prefix}.{self.n_layers}.w" in store.values:
            self.n_layers += 1

    def layers(self) -> list:
        """The ``(w, b)`` pairs, as the store's leaves for this step."""
        leaf, p = self.store.leaf, self.prefix
        return [(leaf(f"{p}.{i}.w"), leaf(f"{p}.{i}.b")) for i in range(self.n_layers)]

    @property
    def width(self) -> int:
        """The output layer's width: its bias's length."""
        return len(self.store.values[f"{self.prefix}.{self.n_layers - 1}.b"])

    def __call__(self, x):
        return ad.mlp(x, self.layers(), u=self.u, k=self.k,
                      heads=[(h.layers(), h.u, h.k) for h in self.heads])


class FieldSamples:
    """A field's output at ``k`` samples per ray, one row per sample: its
    heads' pre-activation columns, ``cols`` mapping each head's name to its
    ``(start, width)``. A head is decoded on first read, under its weights'
    name, one row per ray, (B,k,3) or (B,k): ``rgb`` and ``pst`` by sigmoid,
    ``sigma`` by softplus, so an output nothing reads builds no node."""

    def __init__(self, out, cols: dict, k: int):
        self.out, self.cols, self.k = out, cols, k

    def _head(self, name: str, activation):
        start, width = self.cols[name]
        col = ad.narrow(self.out, start, width, axis=1)
        return activation(ad.reshape(col, (-1, self.k, width) if width > 1 else (-1, self.k)))

    @cached_property
    def rgb(self):
        return self._head("rgb", ad.sigmoid)

    @cached_property
    def sigma(self):
        return self._head("sigma", ad.softplus)

    @cached_property
    def pst(self):
        return self._head("pst", ad.sigmoid)

    def rows(self, idx: np.ndarray, k: int) -> "FieldSamples":
        """The samples of rows ``idx``, ``k`` per ray: one row gather."""
        return FieldSamples(ad.gather(self.out, idx), self.cols, k)


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

    def _init_params(self, rng: np.random.Generator):
        cfg = self.config
        st = self.store
        trunk = [cfg.trunk_width] * cfg.trunk_depth
        rgb = [cfg.trunk_width + cfg.dir_dim] + [cfg.rgb_width] * (RGB_DEPTH - 1) + [3]
        local = [cfg.ray_embed_dim + GLO_DIM] + [cfg.local_width] * cfg.local_depth + [6]
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
        init_mlp(st, "dynamic.trunk", "dynamic", [cfg.pos_dim + GLO_DIM] + trunk, rng)
        init_mlp(st, "dynamic.sigma", "dynamic", [cfg.trunk_width, 1], rng)
        init_mlp(st, "dynamic.rgb", "dynamic", rgb, rng)
        st.add("glo", rng.normal(0.0, 0.01, size=(cfg.n_frames, GLO_DIM)), "dynamic")
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

    # field evaluation -------------------------------------------------------

    def field(self, net: str, heads: tuple, enc_x, k: int, enc_d=None, glo=None):
        """Samples of the ``static`` or ``dynamic`` ``net`` at encoded points
        ``enc_x``, ``k`` per ray: one node, its trunk and the ``heads``
        (``rgb``, ``sigma``, ``pst``) in that order. ``rgb`` reads the rays'
        encoded unit directions ``enc_d``, and the trunk, when they are
        given, the GLO rows ``glo`` of their frames (see :meth:`glo_lookup`)."""
        bound = [Mlp(self.store, f"{net}.{h}", enc_d if h == "rgb" else None, k) for h in heads]
        out = Mlp(self.store, f"{net}.trunk", glo, k, heads=bound)(enc_x)
        starts = np.cumsum([0] + [m.width for m in bound])
        cols = {h: (int(a), m.width) for h, a, m in zip(heads, starts, bound)}
        return FieldSamples(out, cols, k)

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

    def ray_embedding(self, rays: RayBatch):
        """Fixed-size code for a ray: encoded points at uniform distances.

        Samples ``ray_samples`` points evenly over [near, far] along the unit
        direction, positionally encodes each with :data:`RAY_FREQS` frequencies,
        and concatenates. Sensitive to both origin and direction.
        """
        if rays.near >= rays.far:
            raise ValueError(f"ray embedding needs near < far, got {rays.near} >= {rays.far}")
        cfg = self.config
        pts = rays.points(np.linspace(rays.near, rays.far, cfg.ray_samples))
        return ad.reshape(encode_position(pts, RAY_FREQS), (len(rays), cfg.ray_embed_dim))

    def local_screw(self, rays: RayBatch):
        """(B,6) per-ray refinement screws from the local object-motion MLP,
        which reads each ray's embedding and, as its per-ray operand, the GLO
        row of its frame: the weights' rows are [w_phi; w_glo]."""
        phi = self.ray_embedding(rays)
        return Mlp(self.store, "local.mlp", u=self.glo_lookup(rays.t))(phi)

    def base_screws(self, t_idx):
        """(B,6) rows of the base screw table for frame indices t_idx."""
        self._check_t(t_idx)
        return ad.gather(self.store.leaf("screw.base"), np.asarray(t_idx, dtype=np.int64))

    def global_screws(self, t_idx, q):
        """(B,6) rows of the q-th global screw for frame indices t_idx;
        ``q`` is one latent index or one per row."""
        self._check_t(t_idx)
        n = max(self.config.n_latent, 1)
        q = np.asarray(q, dtype=np.int64)
        if q.size and (q.min() < 0 or q.max() >= n):
            raise IndexError(f"latent ray index {q} out of range")
        flat = np.asarray(t_idx, dtype=np.int64) * n + q
        return ad.gather(self.store.leaf("screw.global"), flat)


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
    be an object. A key of :data:`RETIRED` in ``field_config``, as older
    ones hold, must hold the table's value. Every
    stored entry must be finite, and Adam's second moments ``adam_v``, whose
    square root the next update divides by, must be >= 0."""
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
            adam_t = header["adam_t"]
            for name, t in adam_t.items():
                if type(t) is not int or t < 0:
                    raise CheckpointError(f"{path}: adam_t of {name} is {t!r}, "
                                          f"not an integer >= 0")
            field_config = dict(header["field_config"])
            for key, fixed in RETIRED.items():
                if field_config.pop(key, fixed) != fixed:
                    raise CheckpointError(f"{path}: field_config {key} is not {fixed!r}")
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
            arr = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: {kind} of {name} is not all finite")
            if kind == "adam_v" and (arr < 0).any():
                raise CheckpointError(f"{path}: adam_v of {name} has a negative entry")
            # a field weight is used as a float32 copy, where this would be inf
            if (kind == "value" and name.startswith(FIELD_PREFIXES)
                    and (np.abs(arr) > np.finfo(np.float32).max).any()):
                raise CheckpointError(f"{path}: value of {name} is beyond float32's range")
            getattr(store, ARRAY_KINDS[kind])[name] = arr
        if f.read(1):
            raise CheckpointError(f"{path}: data after the last array")
        store.adam_t = adam_t
    return model, meta
