import json
import math

import numpy as np
import pytest

from moblurf.metrics import (MetricError, MetricReport, evaluate, mask_iou, psnr, ssim,
                             SSIM_C1, SSIM_C2, SSIM_SIGMA, SSIM_WINDOW,
                             _gaussian_taps)


class TestPsnr:
    def test_identical_images_are_infinite(self):
        img = np.random.default_rng(0).random((16, 16, 3))
        assert psnr(img, img) == math.inf

    def test_quarter_mse_case(self):
        a = np.zeros((8, 8, 3))
        b = np.full((8, 8, 3), 0.5)
        assert psnr(a, b) == pytest.approx(6.0206, abs=1e-4)

    def test_mask_excluding_differences_is_infinite(self):
        a = np.zeros((4, 4))
        b = a.copy()
        b[0, 0] = 1.0
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        assert psnr(a, b, mask) == math.inf

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((8, 8, 3)), rng.random((8, 8, 3))
        assert psnr(a, b) == psnr(b, a)

    def test_empty_mask_errors(self):
        with pytest.raises(MetricError):
            psnr(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4), dtype=bool))

    def test_shape_mismatch_errors(self):
        with pytest.raises(MetricError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def brute_force_ssim(x, y, mask=None):
    """Direct per-window double loop over the 2-D window; independent of
    the separable path."""
    win, sig = SSIM_WINDOW, SSIM_SIGMA
    taps = _gaussian_taps(win, sig)
    kernel = np.outer(taps, taps)
    h, w = x.shape
    vals = []
    half = win // 2
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            if mask is not None and not mask[i + half, j + half]:
                continue
            wx = x[i:i + win, j:j + win]
            wy = y[i:i + win, j:j + win]
            mx = (kernel * wx).sum()
            my = (kernel * wy).sum()
            vx = (kernel * wx * wx).sum() - mx * mx
            vy = (kernel * wy * wy).sum() - my * my
            vxy = (kernel * wx * wy).sum() - mx * my
            vals.append(((2 * mx * my + SSIM_C1) * (2 * vxy + SSIM_C2))
                        / ((mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identical_images_are_one(self):
        img = np.random.default_rng(2).random((20, 20))
        assert ssim(img, img) == 1.0

    def test_negative_image_matches_brute_force(self):
        rng = np.random.default_rng(3)
        a = rng.random((24, 24))
        b = 1.0 - a  # negative around the 0.5 mean
        assert ssim(a, b) == pytest.approx(brute_force_ssim(a, b), abs=1e-12)

    def test_random_pair_matches_brute_force_with_mask(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((18, 18)), rng.random((18, 18))
        mask = rng.random((18, 18)) > 0.4
        assert ssim(a, b, mask) == pytest.approx(brute_force_ssim(a, b, mask), abs=1e-12)

    def test_constant_offset_closed_form(self):
        # zero variance: only the luminance term survives
        a = np.full((16, 16), 0.4)
        b = np.full((16, 16), 0.5)
        expected = (2 * 0.4 * 0.5 + SSIM_C1) / (0.4 ** 2 + 0.5 ** 2 + SSIM_C1)
        assert ssim(a, b) == pytest.approx(expected, rel=1e-12)

    def test_color_images_use_channel_mean(self):
        rng = np.random.default_rng(5)
        a = rng.random((16, 16, 3))
        b = rng.random((16, 16, 3))
        assert ssim(a, b) == pytest.approx(ssim(a.mean(-1), b.mean(-1)))

    def test_image_smaller_than_window_errors(self):
        with pytest.raises(MetricError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))


class TestMaskIou:
    def test_identical_masks(self):
        m = np.random.default_rng(6).random((10, 10)) > 0.5
        assert mask_iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert mask_iou(a, b) == 0.0

    def test_half_overlapping_rectangles(self):
        a = np.zeros((4, 8), dtype=bool)
        b = np.zeros((4, 8), dtype=bool)
        a[:, 0:4] = True
        b[:, 2:6] = True
        assert mask_iou(a, b) == pytest.approx(1 / 3)

    def test_empty_union_counts_as_one(self):
        z = np.zeros((4, 4), dtype=bool)
        assert mask_iou(z, z) == 1.0


class TestMetricReport:
    def test_means_and_serialization(self):
        rep = MetricReport()
        rep.add(0, psnr=30.0, ssim=0.9)
        rep.add(1, psnr=32.0, ssim=0.8)
        assert rep.means() == {"psnr": 31.0, "ssim": pytest.approx(0.85)}
        data = json.loads(rep.to_json())
        assert data["frame_count"] == 2
        assert data["frames"][1]["psnr"] == 32.0
        text = rep.to_text()
        assert "psnr" in text and "mean" in text

    def test_infinite_values_serialize(self):
        rep = MetricReport()
        rep.add(0, psnr=math.inf)
        data = json.loads(rep.to_json())
        assert data["frames"][0]["psnr"] == "inf"
        assert "inf" in rep.to_text()

    @pytest.mark.parametrize("values, mean", [
        ([-math.inf, -math.inf], -math.inf), ([math.inf], math.inf),
        ([math.inf, -math.inf], math.nan), ([math.nan, math.inf], math.nan),
        ([np.float64(-np.inf), -math.inf], -math.inf)],
        ids=["minus_inf", "inf", "mixed_signs", "nan", "numpy_minus_inf"])
    def test_column_without_a_finite_value_keeps_its_sign(self, values, mean):
        # a render of a dataset whose blurry frames are its sharp ones has
        # psnr_gain -inf on every frame: its mean once read +inf
        rep = MetricReport()
        for t, v in enumerate(values):
            rep.add(t, psnr_gain=v)
        got = rep.means()["psnr_gain"]
        assert type(got) is float
        assert got == mean or math.isnan(got) and math.isnan(mean)
        # a NaN once went to JSON as "-inf", while the text printed nan
        assert json.loads(rep.to_json())["means"]["psnr_gain"] == str(mean)
        assert rep.to_text().splitlines()[-1].split() == ["mean", str(mean)]

    def test_columns_are_the_union_of_all_rows(self):
        # a fully dynamic frame has no static_p_st; a frame without a mask
        # file has no mask_iou
        rep = MetricReport()
        rep.add(0, psnr=30.0, static_p_st=0.9)
        rep.add(1, psnr=32.0, mask_iou=0.5)
        assert rep.means() == {"psnr": 31.0, "static_p_st": 0.9, "mask_iou": 0.5}
        lines = rep.to_text().splitlines()
        assert lines[0].split() == ["frame", "psnr", "static_p_st", "mask_iou"]
        # the missing cell is blank, so every row keeps the header's width
        assert lines[2] == f"{0:5d} {30.0:14.4f} {0.9:14.4f} {'':>14}"
        assert lines[3] == f"{1:5d} {32.0:14.4f} {'':>14} {0.5:14.4f}"
        assert json.loads(rep.to_json())["means"]["mask_iou"] == 0.5
        assert rep.columns() == ["psnr", "static_p_st", "mask_iou"]


class TestEvaluate:
    def dataset(self):
        from types import SimpleNamespace
        rng = np.random.default_rng(0)
        sharp = rng.random((2, 16, 16, 3))
        mask = np.zeros((2, 16, 16), dtype=bool)
        mask[0, 4:8, 4:8] = True
        mask[1] = True  # fully dynamic: no static pixel
        return SimpleNamespace(sharp=sharp, blur=np.clip(sharp + 0.1, 0, 1),
                               mask_true=mask)

    def test_row_per_frame(self):
        ds = self.dataset()
        pred = np.clip(ds.sharp[0] + 0.05, 0, 1)
        p_dy = np.full((16, 16), 0.25)
        rep = evaluate(ds, [{"t": 0, "rgb": pred, "mask": ds.mask_true[0], "p_dy": p_dy}])
        row = rep.rows[0]
        assert row["frame"] == 0
        assert row["psnr"] == psnr(pred, ds.sharp[0])
        assert row["ssim"] == ssim(pred, ds.sharp[0])
        assert row["baseline_psnr"] == psnr(ds.blur[0], ds.sharp[0])
        assert row["baseline_ssim"] == ssim(ds.blur[0], ds.sharp[0])
        assert row["psnr_gain"] == row["psnr"] - row["baseline_psnr"]
        assert row["mask_iou"] == 1.0
        assert row["static_p_st"] == 0.75

    def test_optional_columns(self):
        ds = self.dataset()
        rep = evaluate(ds, [{"t": 0, "rgb": ds.sharp[0]},
                            {"t": 1, "rgb": ds.sharp[1], "p_dy": np.zeros((16, 16))}])
        assert "mask_iou" not in rep.columns()
        # frame 1 has no static pixel to score staticness on
        assert "static_p_st" not in rep.columns()
        assert rep.means()["psnr"] == math.inf

    def test_shape_mismatch_names_the_frame(self):
        ds = self.dataset()
        with pytest.raises(MetricError, match="frame 1"):
            evaluate(ds, [{"t": 1, "rgb": np.zeros((8, 8, 3))}])

    @pytest.mark.parametrize("size", [10, 11])
    def test_frame_under_the_ssim_window_scores_psnr_alone(self, size):
        # a 10x10 frame has no 11x11 window center: its SSIM cells stay
        # blank, as a region's do, while ssim() itself still refuses it
        from types import SimpleNamespace
        rng = np.random.default_rng(2)
        sharp = rng.random((1, size, size, 3))
        mask = np.zeros((1, size, size), dtype=bool)
        mask[0, 2:5, 2:5] = True
        ds = SimpleNamespace(sharp=sharp, blur=np.clip(sharp + 0.1, 0, 1), mask_true=mask)
        pred = np.clip(sharp[0] + 0.05, 0, 1)
        rep = evaluate(ds, [{"t": 0, "rgb": pred}])
        row = rep.rows[0]
        assert row["psnr"] == psnr(pred, sharp[0])
        assert row["baseline_psnr"] == psnr(ds.blur[0], sharp[0])
        assert row["psnr_moving"] == psnr(pred, sharp[0], mask[0])
        if size == 11:
            assert row["ssim"] == ssim(pred, sharp[0])
            assert row["baseline_ssim"] == ssim(ds.blur[0], sharp[0])
        else:
            assert [c for c in rep.columns() if "ssim" in c] == []
            assert "ssim" not in rep.to_json_dict()["means"]
            with pytest.raises(MetricError, match="smaller than 11x11 window"):
                ssim(pred, sharp[0])


class TestRegions:
    @pytest.fixture(scope="class")
    def quad(self):
        from moblurf.data import synthesize_dataset
        from moblurf.scene import moving_quad_scene
        return synthesize_dataset(moving_quad_scene(size=32, n_frames=3), seed=0,
                                  preset_name="moving-quad")

    def test_moving_and_static_regions(self, quad):
        t = 1
        moving, sharp, blur = quad.mask_true[t], quad.sharp[t], quad.blur[t]
        assert moving.any() and (~moving).any()
        # exact on static pixels, off by 0.1 on moving ones
        pred = np.where(moving[..., None], np.clip(sharp + 0.1, 0, 1), sharp)
        row = evaluate(quad, [{"t": t, "rgb": pred}]).rows[0]
        assert row["psnr_static"] == math.inf and row["psnr_moving"] < 30
        for region, px in (("moving", moving), ("static", ~moving)):
            assert row[f"psnr_{region}"] == psnr(pred, sharp, px)
            assert row[f"ssim_{region}"] == ssim(pred, sharp, px)
            assert row[f"baseline_psnr_{region}"] == psnr(blur, sharp, px)
            assert row[f"baseline_ssim_{region}"] == ssim(blur, sharp, px)

    def test_missing_region_leaves_blank_cells(self):
        from types import SimpleNamespace
        rng = np.random.default_rng(0)
        sharp = rng.random((3, 16, 16, 3))
        mask = np.zeros((3, 16, 16), dtype=bool)  # frame 0: nothing moves
        mask[1] = True                            # frame 1: nothing static
        mask[2, :2, :] = True                     # frame 2: moves on the border only
        ds = SimpleNamespace(sharp=sharp, blur=np.clip(sharp + 0.1, 0, 1),
                             mask_true=mask)
        rows = evaluate(ds, [{"t": t, "rgb": np.clip(sharp[t] + 0.05, 0, 1)}
                             for t in range(3)]).rows
        assert not any(k.endswith("_moving") for k in rows[0])
        assert not any(k.endswith("_static") for k in rows[1])
        # no SSIM window centre lies in the border
        assert "psnr_moving" in rows[2] and "ssim_moving" not in rows[2]

    def test_means_skip_blank_cells(self):
        from types import SimpleNamespace
        rng = np.random.default_rng(1)
        sharp = rng.random((2, 16, 16, 3))
        mask = np.zeros((2, 16, 16), dtype=bool)
        mask[1, 4:12, 4:12] = True
        ds = SimpleNamespace(sharp=sharp, blur=np.clip(sharp + 0.1, 0, 1),
                             mask_true=mask)
        rep = evaluate(ds, [{"t": t, "rgb": np.clip(sharp[t] + 0.05 * (t + 1), 0, 1)}
                            for t in range(2)])
        assert rep.means()["psnr_moving"] == rep.rows[1]["psnr_moving"]
        assert rep.means()["psnr_static"] == pytest.approx(
            np.mean([r["psnr_static"] for r in rep.rows]))
        line = rep.to_text().splitlines()[2]   # frame 0's row
        assert line.startswith(f"{0:5d} ")
        assert len(line) == len(rep.to_text().splitlines()[0])
