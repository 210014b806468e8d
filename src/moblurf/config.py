"""Run configuration and the run manifest."""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass, asdict, fields

from .fields import Architecture, FieldConfig


class ConfigError(ValueError):
    pass


# what a value of each annotated type must be
_KINDS = {"int": "an integer", "float": "a finite number"}


@dataclass
class TrainConfig(Architecture):
    """A run's settings: the architecture (see :class:`Architecture`) and
    the training keys below, at their desk-scale defaults."""

    seed: int = 0
    bri_iters: int = 3000
    mdd_iters: int = 1500
    batch_size: int = 256
    n_samples: int = 32
    screw_lr_start: float = 1e-4
    screw_lr_end: float = 1e-6
    mlp_lr_start: float = 1e-3
    mlp_lr_end: float = 1e-4
    lambda_sm: float = 0.002
    lambda_lg: float = 0.075
    checkpoint_fraction: float = 0.1
    log_every: int = 25

    def __post_init__(self):
        """Every value checked before any work: the type its field is
        annotated with (a bool is not a number, a float is not an int, an
        int is a float), then its range; the architecture's by
        :class:`FieldConfig`."""
        for f in fields(self):
            v = getattr(self, f.name)
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            ok = {"int": number and isinstance(v, int),
                  "float": number and math.isfinite(v)}[f.type]
            if not ok:
                raise ConfigError(f"{f.name} must be {_KINDS[f.type]}, got {v!r}")
        for name in ("bri_iters", "mdd_iters", "batch_size", "n_samples", "log_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("screw_lr_start", "screw_lr_end", "mlp_lr_start", "mlp_lr_end"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("lambda_sm", "lambda_lg"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 < self.checkpoint_fraction <= 1.0:
            raise ConfigError("checkpoint_fraction must lie in (0, 1]")
        try:
            self.field_config(1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def field_config(self, n_frames: int) -> FieldConfig:
        """The architecture for ``n_frames`` frames, from this config's options."""
        return FieldConfig(n_frames=n_frames, **{
            f.name: getattr(self, f.name) for f in fields(Architecture)})

    def to_dict(self) -> dict:
        return asdict(self)


_VALID_KEYS = {f.name for f in fields(TrainConfig)}


def resolve_config(profile: str = "desk", file_values: dict | None = None,
                   overrides: dict | None = None) -> TrainConfig:
    """The defaults, then config-file values, then explicit overrides.
    ``profile`` names the defaults and must be ``"desk"``: the one set there
    is, a name the benchmark's workloads still pass."""
    if profile != "desk":
        raise ConfigError(f"unknown profile {profile!r}; the only one is \"desk\"")
    merged = {}
    for source, label in ((file_values, "config file"), (overrides, "override")):
        if not source:
            continue
        unknown = set(source) - _VALID_KEYS
        if unknown:
            raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
        merged.update(source)
    return TrainConfig(**merged)


def write_manifest(path, command: str, seed: int, extras: dict) -> dict:
    """Materialize the run manifest (written before work begins): the
    command, its seed, the code's version and platform, empty timings, and
    ``extras``: the command's inputs and outputs, and the config a run
    trains or renders with."""
    manifest = {
        "command": command,
        "seed": seed,
        "version": _version(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "timings": {},
        **extras,
    }
    save_manifest(path, manifest)
    return manifest


def read_manifest(path) -> dict:
    """The run manifest at ``path``, as :func:`write_manifest` wrote it."""
    manifest = read_json(path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("timings"), dict):
        raise ConfigError(f"{path}: not a run manifest")
    return manifest


def save_manifest(path, manifest: dict) -> None:
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def read_json(path):
    """The JSON document in the file at ``path``; a malformed one raises
    :class:`ConfigError` naming the file."""
    try:
        with open(path) as f:
            return json.load(f)
    except ValueError as exc:   # bad JSON or bad UTF-8
        raise ConfigError(f"{path}: corrupt JSON: {exc}") from exc


def _version() -> str:
    from . import __version__
    return __version__
