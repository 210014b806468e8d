"""Image-quality metrics (PSNR, SSIM, mask IoU), reports, per-frame evaluation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


class MetricError(ValueError):
    pass


def psnr(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """10 log10(1 / MSE) for [0,1] images; identical inputs give +inf.

    ``mask`` (True = include) restricts the error to a pixel region.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise MetricError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    err = (a - b) ** 2
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise MetricError("psnr: mask excludes every pixel")
        err = err[mask]
    mse = float(err.mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    """The 1-D Gaussian of ``size`` taps, summing to 1."""
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-(x ** 2) / (2 * sigma ** 2))
    return g / g.sum()


def _to_gray(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    return img.mean(axis=-1) if img.ndim == 3 else img


def ssim(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Gaussian-windowed SSIM over valid window centers (no padding).

    Color images are converted to grayscale by channel mean. ``mask``
    selects window centers (True = include); centers whose window leaves
    the frame are always excluded.

    Each window mean is a row filter and then a column filter with the
    11-tap Gaussian, which sums in another order than one 11x11 window:
    a 64x64 frame's SSIM moves by ~1e-16 from the windowed sums.
    """
    x = _to_gray(a)
    y = _to_gray(b)
    if x.shape != y.shape:
        raise MetricError(f"ssim: shape mismatch {x.shape} vs {y.shape}")
    win = SSIM_WINDOW
    if x.shape[0] < win or x.shape[1] < win:
        raise MetricError(f"ssim: image {x.shape} smaller than {win}x{win} window")
    # the five window means at once: the window is separable, so filter
    # the rows, then the columns, with its 1-D taps
    taps = _gaussian_taps(win, SSIM_SIGMA)
    stack = np.stack([x, y, x * x, y * y, x * y])
    rows = sliding_window_view(stack, win, axis=2) @ taps
    mu_x, mu_y, sxx, syy, sxy = sliding_window_view(rows, win, axis=1) @ taps
    xx = sxx - mu_x ** 2
    yy = syy - mu_y ** 2
    xy = sxy - mu_x * mu_y
    ssim_map = ((2 * mu_x * mu_y + SSIM_C1) * (2 * xy + SSIM_C2)) / \
               ((mu_x ** 2 + mu_y ** 2 + SSIM_C1) * (xx + yy + SSIM_C2))
    if mask is not None:
        centers = _window_centers(mask)
        if not centers.any():
            raise MetricError("ssim: mask excludes every window center")
        return float(ssim_map[centers].mean())
    return float(ssim_map.mean())


def _window_centers(mask: np.ndarray) -> np.ndarray:
    """The part of ``mask`` that :func:`ssim` reads: the centers of the
    windows that lie inside the frame."""
    half = SSIM_WINDOW // 2
    mask = np.asarray(mask, dtype=bool)
    return mask[half:mask.shape[0] - half, half:mask.shape[1] - half]


def mask_iou(pred: np.ndarray, true: np.ndarray) -> float:
    """Intersection over union of two binary masks; empty union counts 1."""
    p = np.asarray(pred).astype(bool)
    t = np.asarray(true).astype(bool)
    if p.shape != t.shape:
        raise MetricError(f"mask_iou: shape mismatch {p.shape} vs {t.shape}")
    union = (p | t).sum()
    if union == 0:
        return 1.0
    return float((p & t).sum() / union)


@dataclass
class MetricReport:
    """Per-frame metric rows plus their means, serializable both ways."""

    rows: list = field(default_factory=list)  # dicts with frame id + metrics

    def add(self, frame: int, **metrics):
        self.rows.append({"frame": int(frame), **metrics})

    def columns(self) -> list:
        """Metric names over all rows, in first-seen order."""
        return list(dict.fromkeys(k for r in self.rows for k in r if k != "frame"))

    def means(self) -> dict:
        """Each column's mean over its finite values; a column with none
        averages to the one value all its cells hold, an infinity, or to
        NaN when they differ or one is NaN."""
        out = {}
        for k in self.columns():
            vals = [r[k] for r in self.rows if r.get(k) is not None]
            finite = [v for v in vals if math.isfinite(v)]
            out[k] = float(np.mean(finite) if finite
                           else vals[0] if len(set(vals)) == 1 else math.nan)
        return out

    def to_json_dict(self) -> dict:
        return {"frames": self.rows, "means": self.means(),
                "frame_count": len(self.rows)}

    def to_json(self) -> str:
        def sanitize(v):
            # strict JSON has no Infinity or NaN literal: "inf", "-inf", "nan"
            if isinstance(v, float) and not math.isfinite(v):
                return str(float(v))
            if isinstance(v, dict):
                return {k: sanitize(x) for k, x in v.items()}
            if isinstance(v, list):
                return [sanitize(x) for x in v]
            return v
        return json.dumps(sanitize(self.to_json_dict()), indent=2)

    def to_text(self) -> str:
        if not self.rows:
            return "(no frames)\n"
        keys = self.columns()
        width = {k: max(14, len(k)) for k in keys}

        def cells(row):
            # a metric a frame lacks is a blank cell
            return " ".join(f"{'':>{width[k]}}" if row.get(k) is None
                            else f"{row[k]:{width[k]}.4f}" for k in keys)

        header = "frame " + " ".join(f"{k:>{width[k]}}" for k in keys)
        lines = [header, "-" * len(header)]
        lines += [f"{r['frame']:5d} " + cells(r) for r in self.rows]
        lines += ["-" * len(header), " mean " + cells(self.means())]
        return "\n".join(lines) + "\n"


def evaluate(dataset, frames) -> MetricReport:
    """One report row per rendered frame, against the dataset's held-out
    sharp frames and true motion masks.

    Each frame is a dict with its time index ``t`` and ``rgb`` (H,W,3) in
    [0,1]. PSNR and SSIM, of the render and of the blurry baseline, are
    also scored inside the true motion mask (``*_moving``) and outside it
    (``*_static``); a region a frame lacks leaves its cells blank, and a
    frame under the SSIM window its SSIM cells. A binary ``mask`` adds
    ``mask_iou``; a dynamicness map ``p_dy`` adds ``static_p_st``, the mean
    staticness over the truly static pixels (none on a frame without static
    pixels).
    """
    report = MetricReport()
    for frame in frames:
        t, pred = frame["t"], frame["rgb"]
        sharp, blur = dataset.sharp[t], dataset.blur[t]
        if pred.shape != sharp.shape:
            raise MetricError(f"frame {t}: rendered shape {pred.shape} vs "
                              f"dataset {sharp.shape}")
        moving = dataset.mask_true[t]
        windowed = _window_centers(moving).size > 0
        row = {"psnr": psnr(pred, sharp), "ssim": ssim(pred, sharp) if windowed else None,
               "baseline_psnr": psnr(blur, sharp),
               "baseline_ssim": ssim(blur, sharp) if windowed else None}
        row["psnr_gain"] = row["psnr"] - row["baseline_psnr"]
        for region, px in (("moving", moving), ("static", ~moving)):
            for prefix, img in (("", pred), ("baseline_", blur)):
                if px.any():
                    row[f"{prefix}psnr_{region}"] = psnr(img, sharp, px)
                if _window_centers(px).any():
                    row[f"{prefix}ssim_{region}"] = ssim(img, sharp, px)
        if "mask" in frame:
            row["mask_iou"] = mask_iou(frame["mask"], dataset.mask_true[t])
        static_px = ~dataset.mask_true[t]
        if "p_dy" in frame and static_px.any():
            row["static_p_st"] = float((1.0 - frame["p_dy"])[static_px].mean())
        report.add(t, **{k: v for k, v in row.items() if v is not None})
    return report
