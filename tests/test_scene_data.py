import zlib

import numpy as np
import pytest

from moblurf import data, se3
from moblurf.cameras import CameraPose, frame_pixel_grid, rays_for_pixels
from moblurf.data import (BlurryDataset, DatasetError, perturb_depth,
                          read_dataset, read_depth_raw, synth_blurry_frame,
                          synth_corrupt_pose, synthesize_dataset,
                          write_dataset, write_depth_raw)
from moblurf.pngio import PngError, read_png, write_png
from moblurf.scene import (PRESETS, build_preset, moving_quad_scene, render_sharp,
                           static_scene, streak_scene)


class TestPng:
    def test_rgb_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(21, 17, 3), dtype=np.uint8)
        write_png(tmp_path / "x.png", img)
        assert np.array_equal(read_png(tmp_path / "x.png"), img)

    def test_gray_roundtrip(self, tmp_path):
        img = ((np.arange(64).reshape(8, 8) * 3) % 256).astype(np.uint8)
        write_png(tmp_path / "g.png", img)
        assert np.array_equal(read_png(tmp_path / "g.png"), img)

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(PngError):
            write_png(tmp_path / "bad.png", np.zeros((4, 4)))

    def test_rejects_non_png_file(self, tmp_path):
        p = tmp_path / "not.png"
        p.write_bytes(b"hello world, definitely not a png")
        with pytest.raises(PngError):
            read_png(p)

    def test_rejects_a_chunk_whose_crc_does_not_match(self, tmp_path):
        p = tmp_path / "x.png"
        write_png(p, np.zeros((4, 4, 3), dtype=np.uint8))
        blob = bytearray(p.read_bytes())
        idat = blob.index(b"IDAT")
        length = int.from_bytes(blob[idat - 4:idat], "big")
        blob[idat + 4 + length] ^= 0x01             # the first byte of its CRC
        p.write_bytes(bytes(blob))
        with pytest.raises(PngError) as err:
            read_png(p)
        assert str(err.value) == f"{p}: CRC mismatch in b'IDAT' chunk"

    def test_rejects_an_ihdr_that_is_not_13_bytes(self, tmp_path):
        p = tmp_path / "x.png"
        p.write_bytes(png_with_empty_ihdr())
        with pytest.raises(PngError) as err:
            read_png(p)
        assert str(err.value) == f"{p}: IHDR has 0 bytes, not 13"

    # the writer emits filter 0 only; frames from other encoders use all five
    @pytest.mark.parametrize("filters", [[0], [1], [2], [3], [4], [3, 1, 4, 0, 2]],
                             ids=["none", "sub", "up", "average", "paeth", "mixed"])
    @pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
    def test_reads_every_scanline_filter(self, tmp_path, channels, filters):
        # evenly spaced levels up to 255: Paeth's distances tie, sums wrap
        img = (np.random.default_rng(channels).integers(0, 6, size=(7, 5, channels))
               * 51).astype(np.uint8)
        img = img[:, :, 0] if channels == 1 else img
        p = tmp_path / "f.png"
        p.write_bytes(png_with_filters(img, filters))
        assert np.array_equal(read_png(p), img)


def png_with_filters(img: np.ndarray, filters: list) -> bytes:
    """An 8-bit gray or RGB PNG whose row r is stored under filter type
    ``filters[r % len(filters)]``, encoded as the PNG specification defines."""
    h, w = img.shape[:2]
    bpp = 1 if img.ndim == 2 else 3
    rows = img.reshape(h, w * bpp).astype(np.int64)
    raw = b""
    prev = np.zeros(w * bpp, dtype=np.int64)
    for r, x in enumerate(rows):
        ftype = filters[r % len(filters)]
        a = np.concatenate([np.zeros(bpp, dtype=np.int64), x[:-bpp]])     # left
        c = np.concatenate([np.zeros(bpp, dtype=np.int64), prev[:-bpp]])  # upper left
        b = prev
        p = a + b - c
        pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        pred = [0, a, b, (a + b) // 2, paeth][ftype]
        raw += bytes([ftype]) + ((x - pred) % 256).astype(np.uint8).tobytes()
        prev = x

    def chunk(tag, payload):
        return (len(payload).to_bytes(4, "big") + tag + payload
                + zlib.crc32(tag + payload).to_bytes(4, "big"))

    ihdr = (w.to_bytes(4, "big") + h.to_bytes(4, "big")
            + bytes([8, 0 if bpp == 1 else 2, 0, 0, 0]))
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))


def png_with_empty_ihdr() -> bytes:
    """A PNG signature and an IHDR chunk with no payload and a valid CRC."""
    return (b"\x89PNG\r\n\x1a\n" + bytes(4) + b"IHDR"
            + zlib.crc32(b"IHDR").to_bytes(4, "big"))


class TestRenderSharp:
    def test_static_scene_is_time_invariant(self):
        scene = static_scene()
        pose = scene.pose_at(0)
        a = render_sharp(scene, pose, 0.0)
        b = render_sharp(scene, pose, 0.7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_background_depth_equals_plane_distance(self):
        scene = static_scene()
        _, depth, mask = render_sharp(scene, scene.pose_at(0), 0.0)
        assert np.abs(depth[~mask] - scene.bg_z).max() < 1e-12

    def test_mask_matches_projective_oracle(self):
        # independent check: project each pixel to the quad plane and test
        # the rotated local coordinates against the half extents
        scene = static_scene()
        quad = scene.quads[0]
        tau = 0.3
        _, _, mask = render_sharp(scene, scene.pose_at(0), tau)
        center = quad.center_fn(tau)
        ang = quad.angle_fn(tau)
        size = scene.width
        expected = np.zeros((size, size), dtype=bool)
        for v in range(size):
            for u in range(size):
                px = (u - scene.cx) / scene.fx * center[2]
                py = (v - scene.cy) / scene.fy * center[2]
                rel = np.array([px - center[0], py - center[1]])
                ca, sa = np.cos(-ang), np.sin(-ang)
                lu = ca * rel[0] - sa * rel[1]
                lv = sa * rel[0] + ca * rel[1]
                expected[v, u] = abs(lu) <= quad.half_u and abs(lv) <= quad.half_v
        assert np.array_equal(mask, expected)


def reference_render(scene, pose, tau):
    """``render_sharp``'s formula with whole ray origins and hit points, which
    its x-and-y-only hit points must match bit for bit."""
    uv = frame_pixel_grid(scene.height, scene.width)
    origins, _dirs, pix_dirs = rays_for_pixels(pose, uv)
    dz = pix_dirs[:, 2]
    depth = (scene.bg_z - origins[:, 2]) / dz
    hit = origins + depth[:, None] * pix_dirs
    rgb = scene.bg_texture(hit[:, 0], hit[:, 1])
    mask = np.zeros(len(uv), dtype=bool)
    for quad in scene.quads:
        center = np.asarray(quad.center_fn(tau), dtype=np.float64)
        ang = float(quad.angle_fn(tau))
        d_q = (center[2] - origins[:, 2]) / dz
        rel = (origins + d_q[:, None] * pix_dirs)[:, :2] - center[:2]
        ca, sa = np.cos(-ang), np.sin(-ang)
        lu = ca * rel[:, 0] - sa * rel[:, 1]
        lv = sa * rel[:, 0] + ca * rel[:, 1]
        inside = (np.abs(lu) <= quad.half_u) & (np.abs(lv) <= quad.half_v) \
            & (d_q > 0) & (d_q < depth)
        if inside.any():
            rgb[inside] = quad.texture(lu[inside], lv[inside])
            depth[inside] = d_q[inside]
            mask[inside] = True
    h, w = scene.height, scene.width
    return (rgb.reshape(h, w, 3), depth.reshape(h, w), mask.reshape(h, w))


def window_taus(scene, t):
    """The 9 sub-frame instants of frame t's window, 1/8 of a frame apart."""
    return [scene.frame_tau(t) + k * scene.frame_delta() / 8 for k in range(-4, 5)]


def quantized(frame):
    return np.clip(np.round(frame * 255.0), 0, 255).astype(np.uint8) / 255.0


class TestBlurSynthesis:
    def test_static_scene_blurry_equals_sharp(self):
        scene = static_scene()
        t = 2
        blurry = synth_blurry_frame(scene, t, {})
        sharp, _, _ = render_sharp(scene, scene.pose_at(t), scene.frame_tau(t))
        assert np.abs(blurry - sharp).max() < 1e-15

    def test_blurry_is_exact_mean_of_subframes(self):
        for name, t in [("moving-quad-64", 7), ("static-64", 2), ("streak-64", 4)]:
            scene = build_preset(name)
            taus = window_taus(scene, t)
            subframes = [render_sharp(scene, scene.pose_fn(tau), tau) for tau in taus]
            for tau, got in zip(taus, subframes):
                want = reference_render(scene, scene.pose_fn(tau), tau)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            colors = [rgb for rgb, _, _ in subframes]
            blurry = synth_blurry_frame(scene, t, {})
            assert np.array_equal(blurry, np.mean(colors, axis=0))
            # where a quad moves within the window, the mean is not the center frame
            assert (np.abs(blurry - colors[4]).max() > 0.1) == (name != "static-64")

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_dataset_equals_one_render_per_subframe(self, name, monkeypatch):
        # each exposure instant is rendered once, keyed by its exact tau:
        # moving-quad-64 has 199 distinct instants among its 24 frames and 216
        # sub-frames, and 6 of its 23 window boundaries miss by rounding
        scene = build_preset(name)
        poses_true = scene.true_poses()
        frames = [render_sharp(scene, poses_true[t], scene.frame_tau(t))
                  for t in range(scene.n_frames)]
        blur = [quantized(np.mean([render_sharp(scene, scene.pose_fn(tau), tau)[0]
                                   for tau in window_taus(scene, t)], axis=0))
                for t in range(scene.n_frames)]
        instants = {tau for t in range(scene.n_frames) for tau in window_taus(scene, t)}
        rendered = []

        def recording_render(scene, pose, tau):
            rendered.append(tau)
            return render_sharp(scene, pose, tau)

        monkeypatch.setattr(data, "render_sharp", recording_render)
        for seed in (0, 1):
            rendered.clear()
            ds = synthesize_dataset(scene, seed)
            assert sorted(rendered) == sorted(instants)
            rng = np.random.default_rng(seed)
            assert np.array_equal(ds.sharp, np.stack([quantized(f[0]) for f in frames]))
            assert np.array_equal(ds.depth_true, np.stack([f[1] for f in frames]))
            assert np.array_equal(ds.mask_true, np.stack([f[2] for f in frames]))
            assert np.array_equal(ds.blur, np.stack(blur))
            assert np.array_equal(ds.pseudo_depth, np.stack([
                perturb_depth(f[1], rng).astype(np.float32).astype(np.float64)
                for f in frames]))
            for t, pose in enumerate(ds.poses_corrupt):
                want = synth_corrupt_pose(poses_true, t)
                assert np.array_equal(pose.as_matrix34(), want.as_matrix34())
            for got, want in zip(ds.poses_true, poses_true):
                assert np.array_equal(got.as_matrix34(), want.as_matrix34())

    def test_streak_length_matches_box_filter_prediction(self):
        # bright quad at uniform velocity on a dark background: the blurred
        # edge ramp spans exactly (speed * window span) pixels
        scene = streak_scene()
        t = scene.n_frames // 2
        blurry = synth_blurry_frame(scene, t, {})
        quad = scene.quads[0]
        z = quad.center_fn(0.0)[2]
        speed_px = 2.4 * scene.frame_delta() * scene.fx / z
        row = blurry[:, :, 0][scene.height // 2]
        lo, hi = 0.1, 0.9
        partial = np.where((row > lo + 0.02) & (row < hi - 0.02))[0]
        # two ramps (leading + trailing edge); measure each
        gaps = np.where(np.diff(partial) > 1)[0]
        assert len(gaps) == 1
        left = partial[:gaps[0] + 1]
        right = partial[gaps[0] + 1:]
        for ramp in (left, right):
            assert abs(len(ramp) - speed_px) <= 1.0


class TestCorruptPose:
    def _poses(self, fn, n=7):
        return [CameraPose(*fn(t), fx=64, fy=64, cx=32, cy=32)
                for t in range(n)]

    def test_constant_trajectory_unchanged(self):
        poses = self._poses(lambda t: (np.eye(3), np.array([1.0, 2.0, 3.0])))
        out = synth_corrupt_pose(poses, 3)
        assert np.abs(out.rotation - np.eye(3)).max() < 1e-10
        assert np.abs(out.center - [1, 2, 3]).max() < 1e-10

    def test_uniform_rotation_angle_is_mean_of_samples(self):
        step = np.deg2rad(2.0)
        poses = self._poses(lambda t: (se3.exp_rotation([0, 0, t * step]), np.zeros(3)))
        t = 3
        out = synth_corrupt_pose(poses, t)
        q = se3.quat_from_matrix(out.rotation)
        # axis must stay z
        assert np.abs(q[[1, 2]]).max() < 1e-9
        # oracle: average the sampled angles directly
        angles = [t * step + k / 8 * step for k in range(-4, 5)]
        got = 2 * np.arctan2(q[3], q[0])
        assert got == pytest.approx(np.mean(angles), abs=1e-6)

    def test_uniform_translation_is_mean_of_samples(self):
        vel = np.array([0.3, -0.1, 0.2])
        poses = self._poses(lambda t: (np.eye(3), t * vel))
        t = 2
        out = synth_corrupt_pose(poses, t)
        samples = [t * vel + k / 8 * vel for k in range(-4, 5)]
        assert np.abs(out.center - np.mean(samples, axis=0)).max() < 1e-12

    def test_clamps_at_sequence_ends(self):
        poses = self._poses(lambda t: (np.eye(3), np.array([float(t), 0, 0])))
        out = synth_corrupt_pose(poses, 0)
        # left half of the window clamps to the center pose
        samples = [max(0 + k / 8, 0.0) if k < 0 else k / 8 for k in range(-4, 5)]
        assert out.center[0] == pytest.approx(np.mean(samples))

    def test_rotation_stays_valid(self):
        scene = moving_quad_scene()
        poses = scene.true_poses()
        for t in (0, 5, 23):
            r = synth_corrupt_pose(poses, t).rotation
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
            assert abs(np.linalg.det(r) - 1) < 1e-10


class TestCameraPose:
    # negated comparisons: fx = NaN once passed "fx <= 0"
    @pytest.mark.parametrize("field, value", [
        ("fx", np.nan), ("fy", np.inf), ("fx", 0.0), ("cx", np.nan), ("cy", -np.inf),
        ("center", np.array([0.0, np.nan, 0.0])), ("center", np.array([np.inf, 0, 0]))],
        ids=["fx_nan", "fy_inf", "fx_zero", "cx_nan", "cy_inf", "center_nan", "center_inf"])
    def test_camera_pose_rejects_non_finite_values(self, field, value):
        kwargs = dict(rotation=np.eye(3), center=np.zeros(3), fx=64.0, fy=64.0,
                      cx=32.0, cy=32.0)
        CameraPose(**kwargs)
        with pytest.raises(ValueError, match="finite"):
            CameraPose(**{**kwargs, field: value})


class TestPerturbDepth:
    def test_is_clamped_affine_map_of_seed_draws(self):
        # one scale, then one shift, drawn from the generator; a zero depth
        # under a negative shift meets the clamp
        depth = np.random.default_rng(0).random((8, 8)) + 2.0
        depth[0, 0] = 0.0
        draws = np.random.default_rng(2)
        a, b = draws.uniform(0.5, 2.0), draws.uniform(-0.5, 0.5)
        out = perturb_depth(depth, np.random.default_rng(2))
        assert np.array_equal(out, np.maximum(a * depth + b, 1e-3))
        assert b < 0 and out[0, 0] == 1e-3

    def test_deterministic_per_seed(self):
        depth = np.random.default_rng(2).random((8, 8)) + 2.0
        a = perturb_depth(depth, np.random.default_rng(42))
        b = perturb_depth(depth, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_stays_positive(self):
        depth = np.full((4, 4), 0.01)
        out = perturb_depth(depth, np.random.default_rng(3))
        assert np.all(out > 0)


class TestDatasetIO:
    @pytest.fixture(scope="class")
    def dataset(self):
        return synthesize_dataset(static_scene(size=32, n_frames=3), seed=5,
                                  preset_name="io-test")

    def test_roundtrip_field_by_field(self, dataset, tmp_path):
        out = tmp_path / "ds"
        write_dataset(dataset, out)
        back = read_dataset(out)
        assert back.meta == dataset.meta
        assert np.array_equal(back.blur, dataset.blur)
        assert np.array_equal(back.sharp, dataset.sharp)
        assert np.array_equal(back.mask_true, dataset.mask_true)
        assert np.array_equal(back.pseudo_depth, dataset.pseudo_depth)
        assert np.array_equal(back.depth_true, dataset.depth_true)
        for a, b in zip(back.poses_corrupt, dataset.poses_corrupt):
            assert np.array_equal(a.as_matrix34(), b.as_matrix34())
        for a, b in zip(back.poses_true, dataset.poses_true):
            assert np.array_equal(a.as_matrix34(), b.as_matrix34())

    def test_refuses_nonempty_dir(self, dataset, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        (out / "junk.txt").write_text("hi")
        with pytest.raises(DatasetError, match="not empty"):
            write_dataset(dataset, out)
        write_dataset(dataset, out, force=True)

    def test_truncated_depth_file_errors(self, dataset, tmp_path):
        out = tmp_path / "ds"
        write_dataset(dataset, out)
        victim = out / "depth_pseudo" / "0001.raw"
        data = victim.read_bytes()
        victim.write_bytes(data[:len(data) - 40])
        with pytest.raises(DatasetError, match="payload"):
            read_dataset(out)

    def test_unknown_version_errors(self, dataset, tmp_path):
        out = tmp_path / "ds"
        write_dataset(dataset, out)
        meta = (out / "meta.json").read_text().replace("MBRFDS1", "MBRFDS9")
        (out / "meta.json").write_text(meta)
        with pytest.raises(DatasetError, match="version"):
            read_dataset(out)

    def test_missing_frame_errors(self, dataset, tmp_path):
        out = tmp_path / "ds"
        write_dataset(dataset, out)
        (out / "blur" / "0002.png").unlink()
        with pytest.raises(DatasetError, match="missing"):
            read_dataset(out)

    def test_depth_raw_magic_check(self, tmp_path):
        p = tmp_path / "d.raw"
        write_depth_raw(p, np.ones((4, 5), dtype=np.float32))
        assert np.array_equal(read_depth_raw(p), np.ones((4, 5)))
        p.write_bytes(b"WRONGMAG" + b"\0" * 32)
        with pytest.raises(DatasetError, match="magic"):
            read_depth_raw(p)


class TestSynthesizedInvariants:
    def test_mask_consistent_with_first_hit(self):
        ds = synthesize_dataset(moving_quad_scene(size=32, n_frames=4), seed=1)
        # dynamic pixels are strictly nearer than the background plane
        for t in range(4):
            assert np.all(ds.depth_true[t][ds.mask_true[t]] < 6.0 - 1e-9)

    def test_preset_registry(self):
        scene = build_preset("moving-quad-64")
        assert scene.n_frames == 24 and scene.width == 64
        with pytest.raises(ValueError, match="moving-quad-64"):
            build_preset("no-such-preset")
