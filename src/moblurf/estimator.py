"""Estimator-style facade over the full pipeline.

Follows the scikit-learn conventions (constructor params stored verbatim,
``get_params``/``set_params``, fitted attributes carry a trailing
underscore) so the pipeline drops into tooling that expects that API:

    est = MoBluRF(profile="desk", seed=7, bri_iters=500)
    est.fit("path/to/dataset").predict([3, 9], pose_source="base")
"""

from __future__ import annotations

import inspect

import numpy as np


class NotFittedError(RuntimeError):
    pass


class MoBluRF:
    """Two-stage motion-deblurring dynamic radiance field.

    Parameters mirror the training configuration; ``None`` means "use the
    profile default". ``overrides`` takes any remaining config keys.
    """

    def __init__(self, profile: str = "desk", seed: int = 0,
                 bri_iters: int | None = None, mdd_iters: int | None = None,
                 batch_size: int | None = None, n_samples: int | None = None,
                 n_latent: int | None = None, overrides: dict | None = None):
        self.profile = profile
        self.seed = seed
        self.bri_iters = bri_iters
        self.mdd_iters = mdd_iters
        self.batch_size = batch_size
        self.n_samples = n_samples
        self.n_latent = n_latent
        self.overrides = overrides

    # sklearn-style parameter plumbing --------------------------------------

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "MoBluRF":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for MoBluRF; "
                                 f"valid parameters: {sorted(valid)}")
            setattr(self, key, value)
        return self

    def _resolved_config(self):
        from .config import resolve_config
        overrides = dict(self.overrides or {})
        for key in ("bri_iters", "mdd_iters", "batch_size", "n_samples", "n_latent"):
            value = getattr(self, key)
            if value is not None:
                overrides[key] = value
        overrides["seed"] = self.seed
        return resolve_config(self.profile, overrides=overrides)

    # fitting ----------------------------------------------------------------

    def fit(self, dataset, out_dir=None) -> "MoBluRF":
        """Train both stages on a BlurryDataset (or a dataset directory).

        With ``out_dir`` set, checkpoints and logs land there; otherwise
        training stays in memory.
        """
        from .data import BlurryDataset, read_dataset
        from .training import Trainer

        if not isinstance(dataset, BlurryDataset):
            dataset = read_dataset(dataset)
        _validate_dataset(dataset)
        trainer = Trainer(self._resolved_config(), dataset)
        self.run_info_ = trainer.run(out_dir)
        self.dataset_ = dataset
        self.trainer_ = trainer
        self.model_ = trainer.model
        self.history_ = trainer.history
        return self

    def _require_fitted(self):
        if not hasattr(self, "model_"):
            raise NotFittedError("this MoBluRF instance is not fitted yet; "
                                 "call fit() first")

    # prediction ---------------------------------------------------------------

    def predict(self, timestamps=None, pose_source: str = "base",
                return_maps: bool = False):
        """Render sharp frames at trained time indices.

        pose_source: "base" renders along the trained base rays (corrupted
        pose + learned per-frame warp), "true" uses the held-out true poses,
        "corrupt" the raw corrupted poses.
        """
        from .inference import infer_frame, infer_frame_base_rays

        self._require_fitted()
        ds = self.dataset_
        h, w = ds.shape
        if timestamps is None:
            timestamps = ds.meta.get("eval_timestamps") or list(range(ds.n_frames))
        frames, maps = [], []
        for t in timestamps:
            t = int(t)
            if pose_source == "base":
                out = infer_frame_base_rays(self.model_, ds.poses_corrupt[t], t,
                                            h, w, ds.near, ds.far,
                                            self.trainer_.config.n_samples)
            elif pose_source == "true":
                out = infer_frame(self.model_, ds.poses_true[t], t, h, w,
                                  ds.near, ds.far, self.trainer_.config.n_samples)
            elif pose_source == "corrupt":
                out = infer_frame(self.model_, ds.poses_corrupt[t], t, h, w,
                                  ds.near, ds.far, self.trainer_.config.n_samples)
            else:
                raise ValueError(f"unknown pose_source {pose_source!r}")
            frames.append(out["rgb"])
            maps.append(out)
        stacked = np.stack(frames)
        return (stacked, maps) if return_maps else stacked

    def score(self, timestamps=None, pose_source: str = "base") -> float:
        """Mean PSNR of rendered frames against the held-out sharp frames."""
        from .metrics import psnr

        self._require_fitted()
        ds = self.dataset_
        if timestamps is None:
            timestamps = ds.meta.get("eval_timestamps") or list(range(ds.n_frames))
        frames = self.predict(timestamps, pose_source=pose_source)
        vals = [psnr(frames[i], ds.sharp[int(t)]) for i, t in enumerate(timestamps)]
        finite = [v for v in vals if np.isfinite(v)]
        return float(np.mean(finite)) if finite else float("inf")


def _validate_dataset(ds) -> None:
    n = ds.n_frames
    h, w = ds.shape
    if ds.blur.shape != (n, h, w, 3):
        raise ValueError(f"blur frames have shape {ds.blur.shape}, "
                         f"expected {(n, h, w, 3)}")
    if len(ds.poses_corrupt) != n:
        raise ValueError(f"{len(ds.poses_corrupt)} corrupted poses for {n} frames")
    if ds.pseudo_depth.shape != (n, h, w):
        raise ValueError(f"pseudo-depth has shape {ds.pseudo_depth.shape}, "
                         f"expected {(n, h, w)}")
    if not np.all(ds.pseudo_depth > 0):
        raise ValueError("pseudo-depth must be strictly positive")
    if not (0 < ds.near < ds.far):
        raise ValueError(f"invalid bounds near={ds.near} far={ds.far}")
