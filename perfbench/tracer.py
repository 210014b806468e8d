"""Spans around the public functions of each moblurf layer.

Tracing lives in the benchmark, not in the program: ``Tracer.install``
replaces the layer functions with wrappers that record a span (name, start,
end, parent) and a few work counts, then call the original unchanged. The
wrappers must not change a single output bit; the traced run checks that.

Functions that other modules imported by name (``from .render import
render_rays``) are replaced in every moblurf module that holds them, so the
wrapper sees each call whichever module makes it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from moblurf import (autodiff, blur, data, fields, inference, metrics, optim,
                     pngio, render, se3, training)

MLP_NAMES = ("static.trunk", "static.sigma", "static.rgb", "static.pst",
             "dynamic.trunk", "dynamic.sigma", "dynamic.rgb", "local.mlp")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1                          # index of the enclosing span
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; ``summary`` turns a slice of them into
    per-layer totals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def mark(self) -> int:
        """Index of the next span, for slicing phases (set-up, timed loop)."""
        return len(self.spans)

    def _enter(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(span.counts, result, *args)`` may
        add work counts after the call returns."""
        tracer = self

        def wrapped(*args, **kwargs):
            span = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if count is not None:
                count(span.counts, out, *args, **kwargs)
            return out

        return wrapped

    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        orig = getattr(owner, attr)
        new = self.wrap(name, orig, count)
        targets = [owner]
        if not isinstance(owner, type):
            targets = [m for key, m in sys.modules.items()
                       if key.startswith("moblurf") and m is not None
                       and any(v is orig for v in vars(m).values())]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is orig:
                    self._restore.append((target, key, orig))
                    setattr(target, key, new)

    def install(self) -> None:
        p = self._patch
        for meth in ("sample_batch", "warp_base", "compute_bri_even_loss",
                     "compute_bri_odd_loss", "compute_mdd_loss", "bri_step",
                     "mdd_step"):
            p(training.Trainer, meth, f"training.{meth}")
        p(autodiff, "backward", "autodiff.backward")
        p(autodiff, "topo_order", "autodiff.topo_order",
          lambda c, order, *a, **k: c.__setitem__("graph_nodes", len(order)))
        p(optim, "adam_step", "optim.adam_step")
        p(render, "render_rays", "render.render_rays", _count_render)
        p(render, "render_kappa", "render.render_kappa")
        p(fields.Mlp, "__call__", "fields.mlp", _count_mlp)
        p(fields, "encode_position", "fields.encode_position")
        p(fields, "save_checkpoint", "fields.checkpoint_save")
        p(fields, "load_checkpoint", "fields.checkpoint_load")
        p(se3, "warp_ray", "se3.warp_ray")
        p(blur, "blurry_render", "blur.blurry_render", _count_blurry)
        p(blur, "lorr", "blur.lorr",
          lambda c, out, model, rays: c.__setitem__("rays", len(rays)))
        p(inference, "infer_frame", "inference.infer_frame")
        p(inference, "infer_frame_base_rays", "inference.infer_frame_base_rays")
        p(metrics, "psnr", "metrics.psnr")
        p(metrics, "ssim", "metrics.ssim")
        p(pngio, "write_png", "pngio.write_png")
        p(pngio, "read_png", "pngio.read_png")
        p(data, "synthesize_dataset", "data.synthesize_dataset")

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore = []

    def summary(self, start: int, stop: int | None = None) -> dict:
        """Per span name: calls, inclusive and self seconds, summed counts.

        Self time is the span's duration minus that of its direct children.
        MLP spans are keyed ``fields.<prefix>``.
        """
        spans = self.spans[start:stop]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= start:
                child_time[span.parent - start] += span.end - span.start
        out: dict[str, dict] = {}
        for span, inner in zip(spans, child_time):
            key = span.name
            if key == "fields.mlp":
                key = "fields." + span.counts["prefix"]
            row = out.setdefault(key, {"calls": 0, "seconds": 0.0,
                                       "self_seconds": 0.0, "counts": {}})
            row["calls"] += 1
            row["seconds"] += span.end - span.start
            row["self_seconds"] += span.end - span.start - inner
            for name, value in span.counts.items():
                if name != "prefix":
                    row["counts"][name] = row["counts"].get(name, 0) + value
        return out


def _count_render(counts, out, model, rays, n_samples, rng=None):
    counts["rays"] = len(rays)
    counts["sample_rows"] = len(rays) * n_samples


def _count_mlp(counts, out, mlp, x):
    rows = autodiff.value_of(x).shape[0]
    macs = sum(mlp.store.values[f"{mlp.prefix}.{i}.w"].size
               for i in range(mlp.n_layers))
    counts["prefix"] = mlp.prefix
    counts["rows"] = rows
    counts["flop"] = 2 * rows * macs


def _count_blurry(counts, out, model, base_rays, *args, **kwargs):
    counts["latent_rays"] = len(base_rays) * model.config.n_latent
