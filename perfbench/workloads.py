"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one caller: the next unit of work starts
when the previous one has returned. Inputs come from the ``moving-quad-64``
preset synthesized with the benchmark seed, under the ``desk`` profile; the
same seed gives the same inputs and, since every unit count is fixed before
the loop starts, bit-identical outputs.

Moblurf layers are called through their module attributes (``ad.backward``,
``inference.infer_frame_base_rays``, ...), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from moblurf import data, fields, inference, metrics, pngio, scene
from moblurf.config import resolve_config
from moblurf.training import FREEZE_MDD, Trainer

PRESET = "moving-quad-64"
PROFILE = "desk"
# infer-frame renders one fixed model, standing in for a trained checkpoint:
# a freshly initialised model's PSNR swings by ~2 dB from one init seed to
# the next, and inference cost does not depend on the weights
MODEL_SEED = 0


@dataclass
class Outputs:
    """What a phase produced; two phases at one seed must agree bit for bit."""

    losses: list = field(default_factory=list)     # every step's total loss
    photo_full: list = field(default_factory=list)  # every non-zero photo_full
    frames: dict = field(default_factory=dict)     # t -> sha256 of rgb bytes
    psnr: dict = field(default_factory=dict)       # t -> PSNR vs sharp, dB
    photo: dict = field(default_factory=dict)      # t -> photometric error
    dynamic_rows: int = 0                          # dynamic rows in the true masks
    timed_from: tuple = (0, 0)                     # list lengths at warm-up end

    def start_timing(self) -> None:
        self.timed_from = (len(self.losses), len(self.photo_full))

    def comparable(self) -> dict:
        return {"losses": [x.hex() for x in self.losses],
                "frames": self.frames,
                "psnr": {t: v.hex() for t, v in self.psnr.items()}}

    def loss_mean(self) -> float:
        """Training: mean total loss over the timed steps. Inference: mean
        photometric error against the sharp frames."""
        if self.losses:
            return float(np.mean(self.losses[self.timed_from[0]:]))
        return float(np.mean([self.photo[t] for t in sorted(self.photo)]))

    def psnr_db(self) -> float:
        """Inference: mean PSNR against the sharp frames. Training: PSNR of
        the full-model color against the batch targets over the timed steps."""
        if self.psnr:
            return float(np.mean([self.psnr[t] for t in sorted(self.psnr)]))
        # photo_full sums squared error over 3 channels; PSNR uses the mean
        mse = np.mean(self.photo_full[self.timed_from[1]:]) / 3.0
        return -10.0 * math.log10(mse)


class WorkloadError(RuntimeError):
    """A unit of work produced a non-finite or inconsistent output."""


def _finite_loss(breakdown, where: str) -> float:
    total = breakdown.total
    if not math.isfinite(total):
        raise WorkloadError(f"non-finite loss at {where}: {breakdown.as_dict()}")
    return total


def _dataset(seed: int):
    return data.synthesize_dataset(scene.build_preset(PRESET), seed=seed,
                                   preset_name=PRESET)


def _config(seed: int):
    return resolve_config(PROFILE, overrides={"seed": seed})


class BriTrain:
    """``Trainer.bri_step`` from a fresh model; one unit is an even+odd pair,
    the interleave period, so the step-time distribution is not bimodal."""

    name = "bri-train"
    unit = "BRI even+odd pair"
    # one unit and the host-speed measurement after it on the reference box,
    # one BLAS thread
    nominal_s = 0.55
    warmup = 2

    def setup(self, seed: int, tmp: Path):
        return Trainer(_config(seed), _dataset(seed))

    def run_unit(self, trainer, i: int, out: Outputs) -> int:
        for it in (2 * i, 2 * i + 1):
            br = trainer.bri_step(it)
            out.losses.append(_finite_loss(br, f"bri iteration {it}"))
            if br.photo_full > 0:
                out.photo_full.append(br.photo_full)
        return 2 * trainer.config.batch_size


class MddTrain:
    """``Trainer.mdd_step`` with the ground-truth motion mask in place of the
    predicted one, so the local object-motion layer gets the share of rays a
    trained model sends it (a fresh model's mask refines none)."""

    name = "mdd-train"
    unit = "MDD step"
    nominal_s = 1.25
    warmup = 2

    def setup(self, seed: int, tmp: Path):
        return Trainer(_config(seed), _dataset(seed))

    def run_unit(self, trainer, i: int, out: Outputs) -> int:
        store = trainer.model.store
        store.begin_step()
        store.set_frozen_groups(FREEZE_MDD)
        batch = trainer.sample_batch()
        rays = batch.rays
        mask = trainer.dataset.mask_true[rays.t, rays.uv[:, 1], rays.uv[:, 0]]
        mask = mask.astype(np.int64)
        loss, br = trainer.compute_mdd_loss(batch, trainer.rng, mask_override=mask)
        out.losses.append(_finite_loss(br, f"mdd iteration {i}"))
        out.photo_full.append(br.photo_full)
        out.dynamic_rows += int(mask.sum())
        # the backward pass and Adam update exactly as mdd_step makes them
        trainer._optimize(loss, trainer.mdd_sched_screw.rate_at(i),
                          trainer.mdd_sched_mlp.rate_at(i))
        return len(rays)


@dataclass
class InferState:
    model: object
    dataset: object
    n_samples: int
    timestamps: list
    tmp: Path


class InferFrame:
    """Full sharp frames along the trained base rays (``render --pose-source
    train``) at the preset's eval timestamps, written to PNG, read back and
    scored against the sharp frame. Forward-only: no graph, no backward."""

    name = "infer-frame"
    unit = "64x64 frame"
    nominal_s = 2.3
    warmup = 1

    def setup(self, seed: int, tmp: Path) -> InferState:
        ds = _dataset(seed)
        cfg = _config(seed)
        model = fields.SceneModel(cfg.field_config(ds.n_frames),
                                  np.random.default_rng(MODEL_SEED))
        path = tmp / "model.ckpt"
        fields.save_checkpoint(path, model, {"seed": MODEL_SEED})
        model, _ = fields.load_checkpoint(path)
        return InferState(model, ds, cfg.n_samples,
                          list(ds.meta["eval_timestamps"]), tmp)

    def run_unit(self, st: InferState, i: int, out: Outputs) -> int:
        ds = st.dataset
        t = st.timestamps[i % len(st.timestamps)]
        h, w = ds.shape
        res = inference.infer_frame_base_rays(st.model, ds.poses_corrupt[t], t,
                                              h, w, ds.near, ds.far, st.n_samples)
        rgb = res["rgb"]
        if not np.all(np.isfinite(rgb)):
            raise WorkloadError(f"non-finite pixel in frame {t}")
        digest = hashlib.sha256(rgb.tobytes()).hexdigest()
        if out.frames.setdefault(t, digest) != digest:
            raise WorkloadError(f"frame {t} differs from its earlier render")
        img = np.clip(np.round(rgb * 255), 0, 255).astype(np.uint8)
        path = st.tmp / f"{t:04d}.png"
        pngio.write_png(path, img)
        back = pngio.read_png(path)
        if not np.array_equal(back, img):
            raise WorkloadError(f"PNG round trip changed frame {t}")
        pred = back / 255.0
        p = metrics.psnr(pred, ds.sharp[t])
        metrics.ssim(pred, ds.sharp[t])
        if not math.isfinite(p):
            raise WorkloadError(f"non-finite PSNR for frame {t}")
        out.psnr[t] = p
        out.photo[t] = float(np.sum((pred - ds.sharp[t]) ** 2, axis=-1).mean())
        return h * w


WORKLOADS = {w.name: w for w in (BriTrain(), MddTrain(), InferFrame())}
