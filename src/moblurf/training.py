"""Two-stage optimization.

Stage 1 initializes base rays by interleaving: even iterations warp the
input rays through the per-frame screw table and fit the static field
(masked photometric), updating static weights and the screw table together;
odd iterations train both radiance fields on all loss terms while the screw
table stays frozen. Stage 2 freezes base screws for good and trains the
blur model: latent bundles, their local refinement, and both fields against
the blurry targets.

The freeze set alone decides what each step trains: a frozen group's
parameters enter the forward pass as constants, so no graph is built
through them, and Adam skips them.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import losses as L
from .blur import blurry_render
from .cameras import RayBatch, rays_for_pixels
from .config import TrainConfig
from .data import BlurryDataset
from .fields import CheckpointError, SceneModel, save_checkpoint, load_checkpoint
from .optim import LrSchedule, adam_step
from .render import motion_mask, render_kappa, render_rays, sample_along_ray

ALL_GROUPS = {"static", "dynamic", "local", "screw_base", "screw_global"}
# a stage that freezes the dynamic net and moves rays by screws reads no
# dynamic output but the detached dynamicness (render.render_on_grid)
FREEZE_BRI_EVEN = ALL_GROUPS - {"static", "screw_base"}
FREEZE_BRI_ODD = ALL_GROUPS - {"static", "dynamic"}
FREEZE_MDD = {"screw_base"}
# each kind of step: its freeze set and the method that builds its loss
STEPS = {"bri_even": (FREEZE_BRI_EVEN, "compute_bri_even_loss"),
         "bri_odd": (FREEZE_BRI_ODD, "compute_bri_odd_loss"),
         "mdd": (FREEZE_MDD, "compute_mdd_loss")}
# share of each batch's pixels that carry local geometry supervision
LG_FRACTION = 0.25


class NumericalError(RuntimeError):
    def __init__(self, message: str, breakdown: dict | None = None):
        super().__init__(message)
        self.breakdown = breakdown or {}


@dataclass
class LossBreakdown:
    photo_dynamic: float = 0.0
    photo_full: float = 0.0
    mphoto_static: float = 0.0
    sm: float = 0.0
    lg: float = 0.0

    @property
    def total(self) -> float:
        return (self.photo_dynamic + self.photo_full + self.mphoto_static
                + self.sm + self.lg)

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


@dataclass
class Batch:
    rays: RayBatch          # input rays from corrupted poses, detached
    targets: np.ndarray     # (B,3) blurry colors
    lg_count: int           # first lg_count rows carry geometry supervision
    neighbors: RayBatch | None   # (2K,) right then down neighbor rays
    pdist: np.ndarray | None     # (3,K) pseudo-depth at p, p+du, p+dv, as
                                 # distances along the unit rays


class Trainer:
    def __init__(self, config: TrainConfig, dataset: BlurryDataset):
        self.config = config
        self.dataset = dataset
        self.rng = np.random.default_rng(config.seed)
        self.model = SceneModel(config.field_config(dataset.n_frames), self.rng)
        self.bri_sched_screw = LrSchedule(config.screw_lr_start, config.screw_lr_end,
                                          config.bri_iters)
        self.bri_sched_mlp = LrSchedule(config.mlp_lr_start, config.mlp_lr_end,
                                        config.bri_iters)
        self.mdd_sched_screw = LrSchedule(config.screw_lr_start, config.screw_lr_end,
                                          config.mdd_iters)
        self.mdd_sched_mlp = LrSchedule(config.mlp_lr_start, config.mlp_lr_end,
                                        config.mdd_iters)
        self._h, self._w = dataset.shape
        self.history: list[dict] = []
        self.timings: dict = {}     # seconds spent per stage, kept in checkpoints

    # batching ---------------------------------------------------------------

    def sample_batch(self) -> Batch:
        b = self.config.batch_size
        k = int(round(b * LG_FRACTION))
        h, w = self._h, self._w
        n = self.dataset.n_frames
        t = self.rng.integers(0, n, size=b)
        u = np.empty(b, dtype=np.int64)
        v = np.empty(b, dtype=np.int64)
        u[:k] = self.rng.integers(0, w - 1, size=k)
        v[:k] = self.rng.integers(0, h - 1, size=k)
        u[k:] = self.rng.integers(0, w, size=b - k)
        v[k:] = self.rng.integers(0, h, size=b - k)
        rays, scale = self._input_rays(t, u, v)
        targets = self.dataset.blur[t, v, u]
        neighbors = None
        pdist = None
        if k:
            t3 = np.concatenate([t[:k], t[:k]])
            u3 = np.concatenate([u[:k] + 1, u[:k]])
            v3 = np.concatenate([v[:k], v[:k] + 1])
            neighbors, nb_scale = self._input_rays(t3, u3, v3)
            pd = self.dataset.pseudo_depth
            pdist = np.stack([pd[t[:k], v[:k], u[:k]] * scale[:k],
                              pd[t[:k], v[:k], u[:k] + 1] * nb_scale[:k],
                              pd[t[:k], v[:k] + 1, u[:k]] * nb_scale[k:]])
        return Batch(rays=rays, targets=targets, lg_count=k,
                     neighbors=neighbors, pdist=pdist)

    def _input_rays(self, t, u, v) -> tuple[RayBatch, np.ndarray]:
        """The rays of pixels (u, v) of frames t from the corrupted poses,
        and each ray's |pix_dir|: its distance per unit of camera depth,
        which a rigid warp keeps."""
        ds = self.dataset
        b = len(t)
        origins = np.empty((b, 3))
        dirs = np.empty((b, 3))
        scale = np.empty(b)
        uv = np.stack([u, v], axis=1)
        for ti in np.unique(t):
            rows = np.where(t == ti)[0]
            o, d, p = rays_for_pixels(ds.poses_corrupt[ti], uv[rows])
            origins[rows], dirs[rows], scale[rows] = o, d, np.linalg.norm(p, axis=1)
        return RayBatch(origins, dirs, t.astype(np.int64), uv, ds.near, ds.far), scale

    # ray warping ------------------------------------------------------------

    def warp_base(self, rays: RayBatch) -> RayBatch:
        """Base rays = input rays warped by the per-frame screw table: in the
        graph while the ``screw_base`` group trains, constants while frozen."""
        return rays.warp(self.model.base_screws(rays.t))

    # loss helpers -----------------------------------------------------------

    def _lg_terms(self, batch: Batch, sharp, supervise: np.ndarray,
                  base_rays: RayBatch, rng):
        """Local geometry loss over the supervised subset of lg pixels, whose
        depth is the sharp render ``sharp``'s κ*, read only when some pixel
        is supervised.

        Only the supervised pixels' neighbours are rendered. Their jitter is
        drawn for all 2k neighbours first, so the random stream, and every
        later batch, do not depend on which pixels are supervised."""
        k = batch.lg_count
        if k == 0 or not supervise.any():
            return None
        kappa_primary = sharp.kappa_star
        nb = self.warp_base(batch.neighbors)
        grid = sample_along_ray(nb.near, nb.far, self.config.n_samples, 2 * k, rng)
        pdist = batch.pdist
        keep = np.flatnonzero(supervise)
        m = len(keep)
        # with every pixel supervised (BRI-odd) the rows stay as they are
        if m < k:
            both = np.concatenate([keep, k + keep])
            nb, grid = nb.select(both), grid.select(both)
            base_rays, kappa_primary = base_rays.select(keep), ad.gather(kappa_primary, keep)
            pdist = pdist[:, keep]
        kappa_n = render_kappa(self.model, nb, grid)
        # origins, dirs and kappa of the pixel and its right and down neighbours
        rows = [[ad.narrow(x, s, m, axis=0) for x in (r.origins, r.dirs, kap)]
                for r, kap, s in ((base_rays, kappa_primary, 0), (nb, kappa_n, 0),
                                  (nb, kappa_n, m))]
        # the rendered and the pseudo-depth distances along the same rays
        cr_pred, ok_pred = L.local_geometry_cross(
            *[L.surface_points(o, d, kap) for o, d, kap in rows])
        cr_true, ok_true = L.local_geometry_cross(
            *[L.surface_points(ad.value_of(o), ad.value_of(d), dist)
              for (o, d, _), dist in zip(rows, pdist)])
        return L.lg_loss(cr_pred, ok_pred, cr_true, ok_true, n_pixels=k,
                         lam=self.config.lambda_lg)

    # steps --------------------------------------------------------------------

    def compute_bri_even_loss(self, batch: Batch, rng):
        """Warp rays in-graph, fit the static field on unmasked pixels."""
        base = self.warp_base(batch.rays)
        res = render_rays(self.model, base, self.config.n_samples, rng)
        mask = motion_mask(res.p_dy)
        loss = L.photometric(res.color_static, batch.targets, mask)
        breakdown = LossBreakdown(mphoto_static=float(ad.value_of(loss)))
        return loss, breakdown

    def compute_bri_odd_loss(self, batch: Batch, rng):
        """All loss terms on sharp renders; base screws held fixed."""
        base = self.warp_base(batch.rays)
        res = render_rays(self.model, base, self.config.n_samples, rng)
        return self._all_terms(batch, res, motion_mask(res.p_dy), res,
                               np.ones(batch.lg_count, dtype=bool), base, rng)

    def compute_mdd_loss(self, batch: Batch, rng, mask_override=None):
        """Blur-model training loss on latent bundles; base screws frozen."""
        base = self.warp_base(batch.rays)
        blur = blurry_render(self.model, base, self.config.n_samples, rng,
                             mask_override=mask_override)
        # the lg term supervises the lg pixels the motion mask marks dynamic
        supervise = blur.mask[:batch.lg_count].astype(bool)
        return self._all_terms(batch, blur, blur.mask, blur.base, supervise, base, rng)

    def _all_terms(self, batch: Batch, res, mask, sharp, supervise, base, rng):
        """Masked static, dynamic, full, staticness and lg terms of a sharp
        (``RenderResult``) or blurry (``BlurryRender``) render; the lg term
        reads the depth of the sharp render ``sharp``."""
        mphoto = L.photometric(res.color_static, batch.targets, mask)
        photo_d = L.photometric(res.color_dynamic, batch.targets)
        photo_f = L.photometric(res.color_full, batch.targets)
        sm = L.staticness_max(res.p_st_samples, self.config.lambda_sm)
        loss = ad.add(ad.add(ad.add(mphoto, photo_d), photo_f), sm)
        breakdown = LossBreakdown(
            photo_dynamic=float(ad.value_of(photo_d)),
            photo_full=float(ad.value_of(photo_f)),
            mphoto_static=float(ad.value_of(mphoto)),
            sm=float(ad.value_of(sm)))
        lg = self._lg_terms(batch, sharp, supervise, base, rng)
        if lg is not None:
            loss = ad.add(loss, lg)
            breakdown.lg = float(ad.value_of(lg))
        return loss, breakdown

    def bri_step(self, iteration: int) -> LossBreakdown:
        return self._step("bri", "bri_odd" if iteration % 2 else "bri_even", iteration)

    def mdd_step(self, iteration: int) -> LossBreakdown:
        return self._step("mdd", "mdd", iteration)

    def _step(self, stage: str, kind: str, iteration: int) -> LossBreakdown:
        """One step of ``kind`` (see :data:`STEPS`): fresh leaves under its
        freeze set, the loss its method makes of a sampled batch, then the
        update at the stage's rates."""
        frozen, method = STEPS[kind]
        self.model.store.set_frozen_groups(frozen)
        loss, breakdown = getattr(self, method)(self.sample_batch(), self.rng)
        if not np.isfinite(breakdown.total):
            raise NumericalError(f"non-finite loss at {stage} iteration {iteration}",
                                 breakdown.as_dict())
        self._optimize(loss, *self._rates(stage, iteration))
        return breakdown

    def _rates(self, stage: str, iteration: int) -> tuple[float, float]:
        """(screw, MLP) learning rates of a stage's iteration."""
        screw, mlp = ((self.bri_sched_screw, self.bri_sched_mlp) if stage == "bri"
                      else (self.mdd_sched_screw, self.mdd_sched_mlp))
        return screw.rate_at(iteration), mlp.rate_at(iteration)

    def _optimize(self, loss, screw_rate: float, mlp_rate: float):
        ad.backward(loss)
        adam_step(self.model.store, {g: screw_rate if g.startswith("screw") else mlp_rate
                                     for g in ALL_GROUPS})

    # full runs -----------------------------------------------------------------

    def run(self, out_dir=None, resume: bool = False,
            progress: bool = False) -> dict:
        """Train both stages. With ``out_dir`` the run writes its log and
        checkpoints there and ``resume`` continues from the latest
        checkpoint, and from the seconds each stage had spent by then;
        without it the run stays in memory and writes no file. Returns the
        final checkpoint's path (None in memory) and the stage timings."""
        cfg = self.config
        out = None if out_dir is None else Path(out_dir)
        start_stage, start_iter, log_mode = "bri", 0, "w"
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            ckpt = out / "checkpoint_latest.ckpt"
            # without a checkpoint the run starts over, and so does its log
            if resume and ckpt.exists():
                start_stage, start_iter = self._resume(ckpt)
                log_mode = "a"
        with (contextlib.nullcontext() if out is None
              else open(out / "train_log.txt", log_mode)) as log:
            if start_stage == "bri":
                self._stage_loop("bri", cfg.bri_iters, start_iter, out, log, progress)
                self._save(out, "checkpoint_bri.ckpt", "bri", cfg.bri_iters - 1)
                start_iter = 0
            self._stage_loop("mdd", cfg.mdd_iters, start_iter, out, log, progress)
        self._save(out, "checkpoint_final.ckpt", "mdd", cfg.mdd_iters - 1)
        return {"checkpoint": None if out is None else str(out / "checkpoint_final.ckpt"),
                "timings": {**self.timings,
                            "total_seconds": round(sum(self.timings.values()), 3)}}

    def _resume(self, ckpt: Path) -> tuple[str, int]:
        """Take the model, RNG state and stage timings of the checkpoint
        ``ckpt``, all checked first, as is the config it was trained with
        against this run's, and cut the log to its length there.
        Returns the stage and iteration to go on at."""
        model, meta = load_checkpoint(ckpt)
        built = asdict(self.config.field_config(self.dataset.n_frames))
        diff = [f"{k} is {v}, not {built[k]}" for k, v in asdict(model.config).items()
                if v != built[k]]
        if diff:
            raise CheckpointError(f"{ckpt}: field_config does not match this run's "
                                  f"config and dataset: {', '.join(diff)}")
        state = meta.get("train_state")
        if not isinstance(state, dict):
            raise CheckpointError(f"{ckpt}: meta has no train_state object")
        # the run goes on with the settings it started with; keys this
        # version dropped are ignored, as render ignores them
        stored = state.get("config")
        if not isinstance(stored, dict):
            raise CheckpointError(f"{ckpt}: train_state config must be an object, "
                                  f"got {stored!r}")
        diff = [f"{k} is {v}, not {stored[k]}" if k in stored else f"{k} is {v}, not stored"
                for k, v in self.config.to_dict().items()
                if k not in stored or stored[k] != v]
        if diff:
            raise CheckpointError(f"{ckpt}: this run's config is not the one it was "
                                  f"trained with: {', '.join(diff)}")
        stage, iteration = state.get("stage"), state.get("iteration")
        if stage not in ("bri", "mdd"):
            raise CheckpointError(f"{ckpt}: train_state stage must be \"bri\" "
                                  f"or \"mdd\", got {stage!r}")
        total = self.config.bri_iters if stage == "bri" else self.config.mdd_iters
        if type(iteration) is not int or not 0 <= iteration < total:
            raise CheckpointError(f"{ckpt}: train_state iteration must be an "
                                  f"integer in [0, {total}), got {iteration!r}")
        timings = state.get("timings", {})
        if not (isinstance(timings, dict) and all(
                type(v) in (int, float) and 0 <= v < math.inf for v in timings.values())):
            raise CheckpointError(f"{ckpt}: train_state timings must be an object of "
                                  f"finite numbers >= 0, got {timings!r}")
        log_bytes = state.get("log_bytes")
        if log_bytes is not None and (type(log_bytes) is not int or log_bytes < 0):
            raise CheckpointError(f"{ckpt}: train_state log_bytes must be an integer "
                                  f">= 0, got {log_bytes!r}")
        # a cut past the log's end would pad it with NUL bytes
        log = ckpt.parent / "train_log.txt"
        size = log.stat().st_size if log.exists() else None
        if log_bytes is not None and size is not None and log_bytes > size:
            raise CheckpointError(f"{ckpt}: train_state log_bytes {log_bytes} is past "
                                  f"the end of {log} ({size} bytes)")
        try:
            self.rng.bit_generator.state = state.get("rng_state")
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise CheckpointError(f"{ckpt}: train_state rng_state: {exc}") from exc
        self.model, self.timings = model, dict(timings)
        # drop the lines logged after the checkpoint: those iterations run again
        if log_bytes is not None and size is not None:
            os.truncate(log, log_bytes)
        return stage, iteration + 1

    def _stage_loop(self, stage: str, total: int, start: int, out: Path | None,
                    log, progress: bool):
        cfg = self.config
        step = self.bri_step if stage == "bri" else self.mdd_step
        ckpt_every = max(1, int(total * cfg.checkpoint_fraction))
        # seconds spent in this stage, carried over from a resumed checkpoint,
        # on a clock that a change of the wall clock does not move
        t0 = time.monotonic() - self.timings.get(f"{stage}_seconds", 0.0)
        for it in range(start, total):
            breakdown = step(it)
            self.timings[f"{stage}_seconds"] = round(time.monotonic() - t0, 3)
            screw_rate, mlp_rate = self._rates(stage, it)
            rec = {"stage": stage, "iteration": it,
                   "parity": ("even" if it % 2 == 0 else "odd") if stage == "bri" else "-",
                   **breakdown.as_dict(), "lr_mlp": mlp_rate, "lr_screw": screw_rate}
            self.history.append(rec)
            if log is not None and (it % cfg.log_every == 0 or it == total - 1):
                line = (f"it={it} stage={stage} parity={rec['parity']} "
                        f"photo_d={rec['photo_dynamic']:.6f} photo_f={rec['photo_full']:.6f} "
                        f"mphoto_s={rec['mphoto_static']:.6f} sm={rec['sm']:.6f} "
                        f"lg={rec['lg']:.6f} total={rec['total']:.6f} "
                        f"lr_mlp={rec['lr_mlp']:.3e} lr_screw={rec['lr_screw']:.3e}")
                log.write(line + "\n")
                log.flush()
                if progress:
                    print(line, flush=True)
            if (it + 1) % ckpt_every == 0:
                self._save(out, "checkpoint_latest.ckpt", stage, it, log)

    def _save(self, out: Path | None, name: str, stage: str, iteration: int,
              log=None):
        if out is not None:
            meta = self._ckpt_meta(stage, iteration)
            if log is not None:
                # the log's length at this checkpoint, so a resume can cut
                # what the interrupted run logged after it
                meta["train_state"]["log_bytes"] = log.tell()
            save_checkpoint(out / name, self.model, meta)

    def _ckpt_meta(self, stage: str, iteration: int) -> dict:
        return {"train_state": {
            "stage": stage,
            "iteration": iteration,
            "rng_state": self.rng.bit_generator.state,
            "config": self.config.to_dict(),
            "timings": dict(self.timings),
        }}
