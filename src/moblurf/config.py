"""Run configuration, named scale profiles, and the run manifest."""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, asdict, fields

from .fields import FieldConfig


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    profile: str = "desk"
    seed: int = 0
    bri_iters: int = 3000
    mdd_iters: int = 1500
    batch_size: int = 256
    n_samples: int = 32
    n_latent: int = 4
    trunk_depth: int = 4
    trunk_width: int = 64
    rgb_depth: int = 2
    rgb_width: int = 64
    local_depth: int = 4
    local_width: int = 64
    activation: str = "relu"
    pos_freqs: int = 8
    dir_freqs: int = 4
    glo_dim: int = 8
    ray_samples: int = 32
    ray_freqs: int = 2
    screw_lr_start: float = 1e-4
    screw_lr_end: float = 1e-6
    mlp_lr_start: float = 1e-3
    mlp_lr_end: float = 1e-4
    lambda_sm: float = 0.002
    lambda_lg: float = 0.075
    lg_fraction: float = 0.25
    lg_dynamic_only_mdd: bool = True
    checkpoint_fraction: float = 0.1
    log_every: int = 25
    debug_freeze_check: bool = False

    def __post_init__(self):
        for name in ("bri_iters", "mdd_iters", "batch_size", "n_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.n_latent < 0:
            raise ConfigError("n_latent must be >= 0")
        if not 0.0 <= self.lg_fraction <= 1.0:
            raise ConfigError("lg_fraction must lie in [0, 1]")

    def field_config(self, n_frames: int) -> FieldConfig:
        return FieldConfig(n_frames=n_frames, **{
            f.name: getattr(self, f.name) for f in fields(FieldConfig)
            if f.name != "n_frames"})

    def to_dict(self) -> dict:
        return asdict(self)


PROFILES = {
    # full-scale settings; impractical without accelerators but kept as the
    # named reference configuration
    "paper": dict(profile="paper", bri_iters=200_000, mdd_iters=100_000,
                  batch_size=128, n_samples=128, n_latent=6,
                  trunk_depth=9, trunk_width=256, rgb_depth=2, rgb_width=128,
                  local_depth=8, local_width=128),
    # desk scale: fits a full two-stage run in tens of minutes on CPUs
    "desk": dict(profile="desk", bri_iters=3000, mdd_iters=1500,
                 batch_size=256, n_samples=32, n_latent=4,
                 trunk_depth=4, trunk_width=64, rgb_depth=2, rgb_width=64,
                 local_depth=4, local_width=64),
}

_VALID_KEYS = {f.name for f in fields(TrainConfig)}


def resolve_config(profile: str = "desk", file_values: dict | None = None,
                   overrides: dict | None = None) -> TrainConfig:
    """Profile defaults, then config-file values, then explicit overrides."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    merged = dict(PROFILES[profile])
    for source, label in ((file_values, "config file"), (overrides, "override")):
        if not source:
            continue
        unknown = set(source) - _VALID_KEYS
        if unknown:
            raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
        merged.update(source)
    merged["profile"] = profile
    return TrainConfig(**merged)


def write_manifest(path, config: TrainConfig, seed: int, command: str,
                   extras: dict | None = None) -> dict:
    """Materialize the run manifest (written before work begins)."""
    manifest = {
        "command": command,
        "config": config.to_dict(),
        "seed": seed,
        "version": _version(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "timings": {},
    }
    if extras:
        manifest.update(extras)
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def update_manifest(path, timings: dict) -> None:
    """Add ``timings`` (seconds) to the manifest's, so the time of a resumed
    run adds to that of the run it continues."""
    with open(path) as f:
        manifest = json.load(f)
    for key, seconds in timings.items():
        manifest["timings"][key] = round(manifest["timings"].get(key, 0.0) + seconds, 3)
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _version() -> str:
    from . import __version__
    return __version__
