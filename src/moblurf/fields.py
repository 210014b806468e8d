"""Learnable scene components.

Houses the static net (color, density, staticness probability), the dynamic
net (time-conditioned color and density), the local object-motion MLP, the
per-frame GLO codes, and the screw-axis embedding tables. Everything lives
in one ParamStore under these groups:

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
from dataclasses import dataclass, asdict
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
    activation: str = "relu"

    def __post_init__(self):
        for name, v in asdict(self).items():
            if name in ("n_latent", "activation"):
                continue
            if v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v}")
        if self.n_latent < 0:
            raise ValueError("n_latent must be >= 0")
        if self.activation not in ("relu", "softplus"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def pos_dim(self) -> int:
        return 3 + 6 * self.pos_freqs

    @property
    def dir_dim(self) -> int:
        return 3 + 6 * self.dir_freqs

    @property
    def ray_embed_dim(self) -> int:
        return self.ray_samples * (3 + 6 * self.ray_freqs)


def encode_position(x, num_freqs: int):
    """[x, sin(2^k pi x), cos(2^k pi x)] for k = 0..L-1 along the last axis."""
    parts = [x]
    for k in range(num_freqs):
        scaled = ad.mul(x, float(np.pi * (2.0 ** k)))
        parts.append(ad.sin(scaled))
        parts.append(ad.cos(scaled))
    return ad.concat(parts, axis=-1)


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
    store: hidden activation between layers, linear output."""

    def __init__(self, store: ParamStore, prefix: str, activation):
        self.store = store
        self.prefix = prefix
        self.activation = activation
        self.n_layers = 0
        while f"{prefix}.{self.n_layers}.w" in store.values:
            self.n_layers += 1

    def __call__(self, x):
        h = x
        for i in range(self.n_layers):
            w = self.store.leaf(f"{self.prefix}.{i}.w")
            b = self.store.leaf(f"{self.prefix}.{i}.b")
            h = ad.add(ad.matmul(h, w), b)
            if i < self.n_layers - 1:
                h = self.activation(h)
        return h


class SceneModel:
    """All trainable pieces plus their evaluation functions.

    Evaluation is pure given a parameter snapshot: call
    ``store.begin_step()`` before each training forward pass so parameter
    leaves pick up current values.
    """

    def __init__(self, config: FieldConfig, rng: np.random.Generator,
                 store: ParamStore | None = None):
        self.config = config
        if store is None:
            self.store = ParamStore()
            self._init_params(rng)
        else:
            self.store = store
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
        self.act = act = ad.softplus if self.config.activation == "softplus" else ad.relu
        self.static_trunk = Mlp(self.store, "static.trunk", act)
        self.static_sigma = Mlp(self.store, "static.sigma", act)
        self.static_rgb = Mlp(self.store, "static.rgb", act)
        self.static_pst = Mlp(self.store, "static.pst", act)
        self.dynamic_trunk = Mlp(self.store, "dynamic.trunk", act)
        self.dynamic_sigma = Mlp(self.store, "dynamic.sigma", act)
        self.dynamic_rgb = Mlp(self.store, "dynamic.rgb", act)
        self.local_mlp = Mlp(self.store, "local.mlp", act)

    # field evaluation -------------------------------------------------------

    def static_eval_encoded(self, enc_x, enc_d):
        """(color, sigma, p_st) at encoded points ``enc_x`` viewed along
        encoded unit directions ``enc_d`` (see :func:`encode_position`)."""
        h = self.act(self.static_trunk(enc_x))
        sigma = ad.softplus(ad.reshape(self.static_sigma(h), (-1,)))
        color = ad.sigmoid(self.static_rgb(ad.concat([h, enc_d], axis=-1)))
        p_st = ad.sigmoid(ad.reshape(self.static_pst(h), (-1,)))
        return color, sigma, p_st

    def dynamic_eval_encoded(self, enc_x, enc_d, glo):
        """(color, sigma) at encoded points and directions, conditioned on
        the GLO rows ``glo`` of their frames (see :meth:`glo_lookup`)."""
        h = self.act(self.dynamic_trunk(ad.concat([enc_x, glo], axis=-1)))
        sigma = ad.softplus(ad.reshape(self.dynamic_sigma(h), (-1,)))
        color = ad.sigmoid(self.dynamic_rgb(ad.concat([h, enc_d], axis=-1)))
        return color, sigma

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

    def global_screws(self, t_idx, q: int):
        """(omega, v) rows of the q-th global screw for frame indices t_idx."""
        self._check_t(t_idx)
        if not 0 <= q < max(self.config.n_latent, 1):
            raise IndexError(f"latent ray index {q} out of range")
        flat = np.asarray(t_idx, dtype=np.int64) * max(self.config.n_latent, 1) + q
        table = self.store.leaf("screw.global")
        rows = ad.gather(table, flat)
        return ad.narrow(rows, 0, 3, axis=1), ad.narrow(rows, 3, 3, axis=1)


# ---------------------------------------------------------------------------
# checkpoint file format: magic, u32 header length, JSON header, float64
# little-endian array payload in header order.


def save_checkpoint(path, model: SceneModel, extra_meta: dict | None = None):
    store = model.store
    names = sorted(store.values)
    arrays = []
    blobs = []
    for name in names:
        for kind in ("value", "adam_m", "adam_v"):
            src = {"value": store.values, "adam_m": store.adam_m,
                   "adam_v": store.adam_v}[kind][name]
            arr = np.ascontiguousarray(src, dtype="<f8")
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
    """Restore a SceneModel (with optimizer state) and its metadata dict."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen).decode("utf-8"))
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {header.get('version')}")
        store = ParamStore()
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            data = f.read(8 * count)
            if len(data) != 8 * count:
                raise CheckpointError(f"{path}: truncated payload at {spec['name']}")
            arr = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
            name, kind = spec["name"], spec["kind"]
            if kind == "value":
                store.add(name, arr, header["groups"][name])
            elif kind == "adam_m":
                store.adam_m[name] = arr.copy()
            elif kind == "adam_v":
                store.adam_v[name] = arr.copy()
        store.adam_t = {k: int(v) for k, v in header["adam_t"].items()}
    config = FieldConfig(**header["field_config"])
    model = SceneModel(config, rng=None, store=store)
    return model, header["meta"]
