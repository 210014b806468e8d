import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moblurf
from moblurf.cli import main
from moblurf.config import TrainConfig, resolve_config
from moblurf.data import DEPTH_MAGIC
from moblurf.fields import CHECKPOINT_MAGIC

TINY_TRAIN = [
    "--set", "bri_iters=4", "--set", "mdd_iters=2", "--set", "batch_size=16",
    "--set", "n_samples=8", "--set", "n_latent=2", "--set", "trunk_depth=2",
    "--set", "trunk_width=16", "--set", "rgb_width=8", "--set", "local_depth=2",
    "--set", "local_width=8", "--set", "ray_samples=8",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    code = main(["synth", "--preset", "static-64", "--out", str(out), "--seed", "1"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                 "--seed", "0", *TINY_TRAIN])
    assert code == 0
    return out


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_cli(*args) -> subprocess.CompletedProcess:
    """``moblurf`` in a fresh interpreter, as a user runs it: an exception
    that ``main`` does not handle shows as a traceback on stderr."""
    src = str(Path(moblurf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "moblurf.cli", *args],
                          capture_output=True, text=True, env=env)


def assert_clean_error(res, name: str):
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error:"), res.stderr
    assert "Traceback" not in res.stderr
    assert name in res.stderr


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--preset", "static-64", "--out", str(a), "--seed", "3"]) == 0
        assert main(["synth", "--preset", "static-64", "--out", str(b), "--seed", "3"]) == 0
        ta, tb = tree_bytes(a), tree_bytes(b)
        ta.pop("manifest.json"), tb.pop("manifest.json")  # carries timestamps
        assert ta == tb

    def test_preset_contract(self, tmp_path):
        out = tmp_path / "mq"
        assert main(["synth", "--preset", "moving-quad-64", "--out", str(out),
                     "--seed", "0"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n_frames"] == 24
        assert meta["height"] == 64 and meta["width"] == 64

    def test_unknown_preset_lists_options(self, tmp_path, capsys):
        code = main(["synth", "--preset", "bogus", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "moving-quad-64" in err

    def test_refuses_nonempty_without_force(self, tmp_path, dataset_dir):
        code = main(["synth", "--preset", "static-64", "--out", str(dataset_dir)])
        assert code == 1
        code = main(["synth", "--preset", "static-64", "--out", str(dataset_dir),
                     "--seed", "1", "--force"])
        assert code == 0


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        assert (trained_dir / "checkpoint_final.ckpt").exists()
        assert (trained_dir / "checkpoint_bri.ckpt").exists()
        assert (trained_dir / "train_log.txt").exists()
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["bri_iters"] == 4
        assert manifest["seed"] == 0
        assert "bri_seconds" in manifest["timings"]

    def test_config_file_plus_override(self, tmp_path, dataset_dir):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bri_iters": 2, "mdd_iters": 2,
                                        "batch_size": 8, "n_samples": 4,
                                        "n_latent": 0, "trunk_depth": 2,
                                        "trunk_width": 8, "rgb_width": 8,
                                        "local_depth": 2, "local_width": 8,
                                        "ray_samples": 4}))
        out = tmp_path / "run"
        code = main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                     "--config", str(cfg_file), "--set", "mdd_iters=1"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["bri_iters"] == 2
        assert manifest["config"]["mdd_iters"] == 1  # flag beats file

    def test_resume_keeps_manifest(self, tmp_path, dataset_dir):
        out = tmp_path / "run"
        args = ["train", "--dataset", str(dataset_dir), "--out", str(out),
                "--seed", "0", *TINY_TRAIN]
        assert main(args) == 0
        first = json.loads((out / "manifest.json").read_text())
        assert main(args + ["--resume"]) == 0
        merged = json.loads((out / "manifest.json").read_text())
        assert merged["created"] == first["created"]
        # the resumed run starts after the last checkpoint, in MDD, so the
        # first run's BRI time is the only one there is
        assert merged["timings"]["bri_seconds"] == first["timings"]["bri_seconds"]
        assert merged["timings"]["total_seconds"] >= first["timings"]["total_seconds"]

    def test_desk_profile_is_the_default_config(self):
        # train resolves the desk profile; render falls back to TrainConfig()
        # for a checkpoint without a config: the two must agree
        assert resolve_config("desk") == TrainConfig()

    def test_unknown_config_key_rejected(self, tmp_path, dataset_dir):
        code = main(["train", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "x"), "--set", "no_such_knob=1"])
        assert code == 1

    def test_missing_dataset_is_validation_error(self, tmp_path):
        code = main(["train", "--dataset", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "x"), *TINY_TRAIN])
        assert code == 1

    @pytest.mark.parametrize("value", [
        "trunk_width=2.5", "trunk_width=true", "bri_iters=2.5", "log_every=0",
        "lambda_sm=-5"])
    def test_bad_config_value_fails_before_any_work(self, tmp_path, dataset_dir,
                                                    value):
        # each once failed with a traceback, after training began, or with
        # a non-finite gradient
        out = tmp_path / "run"
        res = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out),
                      *TINY_TRAIN, "--set", value)
        assert_clean_error(res, value.partition("=")[0])
        assert not out.exists()


class TestUsage:
    # argparse's own usage errors: a missing required flag, a bad choice
    @pytest.mark.parametrize("args", [
        ["train", "--out", "{tmp}/x"],
        ["render", "--checkpoint", "{tmp}/a", "--dataset", "{tmp}/b",
         "--out", "{tmp}/c", "--pose-source", "bogus"],
    ])
    def test_usage_errors_exit_1(self, tmp_path, args):
        res = run_cli(*[a.format(tmp=tmp_path) for a in args])
        assert res.returncode == 1, res.stderr
        assert "error:" in res.stderr and "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self):
        res = run_cli("render", "--help")
        assert res.returncode == 0 and "--pose-source" in res.stdout


class TestRender:
    def test_eval_pose_render(self, tmp_path, dataset_dir, trained_dir):
        out = tmp_path / "frames"
        code = main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(out),
                     "--pose-source", "eval", "--timestamps", "1,5"])
        assert code == 0
        for t in (1, 5):
            assert (out / "rgb" / f"{t:04d}.png").exists()
            assert (out / "mask" / f"{t:04d}.png").exists()
            assert (out / "p_dy" / f"{t:04d}.raw").exists()

    def test_train_pose_render(self, tmp_path, dataset_dir, trained_dir):
        out = tmp_path / "frames"
        code = main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(out),
                     "--pose-source", "train", "--timestamps", "1"])
        assert code == 0

    def _render_pose_file(self, tmp_path, dataset_dir, trained_dir, line):
        pose_file = tmp_path / "poses.txt"
        pose_file.write_text("\n".join(line for _ in range(3)))
        return main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(tmp_path / "frames"),
                     "--pose-source", "file", "--pose-file", str(pose_file),
                     "--timestamps", "2"])

    def test_pose_file_render(self, tmp_path, dataset_dir, trained_dir):
        # identity rotation, camera at the world origin
        code = self._render_pose_file(tmp_path, dataset_dir, trained_dir,
                                      "1 0 0 0 0 1 0 0 0 0 1 0")
        assert code == 0
        assert (tmp_path / "frames" / "rgb" / "0002.png").exists()

    def test_pose_file_with_invalid_rotation(self, tmp_path, dataset_dir, trained_dir,
                                             capsys):
        # rank-1 "rotation": its rays would have zero length
        code = self._render_pose_file(tmp_path, dataset_dir, trained_dir,
                                      "1 0 0 0 1 0 0 0 1 0 0 0")
        assert code == 1
        assert "orthonormal" in capsys.readouterr().err
        assert not (tmp_path / "frames" / "rgb" / "0002.png").exists()

    def test_non_finite_render_is_numerical_error(self, tmp_path, dataset_dir,
                                                  trained_dir):
        from moblurf.fields import load_checkpoint, save_checkpoint
        model, meta = load_checkpoint(trained_dir / "checkpoint_final.ckpt")
        model.store.values["static.rgb.0.b"][:] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, model, meta)
        out = tmp_path / "frames"
        code = main(["render", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                     "--out", str(out), "--pose-source", "eval", "--timestamps", "1"])
        assert code == 2
        assert not (out / "rgb" / "0001.png").exists()

    def test_manifest_records_checkpoint_config(self, tmp_path, dataset_dir,
                                                trained_dir):
        # the run trained with TINY_TRAIN's overrides, not the desk profile's
        out = tmp_path / "frames"
        assert main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(out),
                     "--timestamps", "1"]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        trained = json.loads((trained_dir / "manifest.json").read_text())["config"]
        assert config == trained
        assert config["trunk_width"] == 16 and config["n_samples"] == 8

    def test_out_of_range_timestamp(self, tmp_path, dataset_dir, trained_dir):
        code = main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(tmp_path / "x"),
                     "--timestamps", "99"])
        assert code == 1

    def test_bad_timestamp_renders_nothing(self, tmp_path, dataset_dir, trained_dir):
        # every index is checked before the first frame is written
        out = tmp_path / "x"
        code = main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(out),
                     "--timestamps", "1,99"])
        assert code == 1
        assert not list((out / "rgb").glob("*"))
        assert not (out / "render_meta.json").exists()

    def test_empty_eval_list_renders_every_frame(self, tmp_path, dataset_dir,
                                                 trained_dir):
        # the rule predict() follows: no eval_timestamps means every frame
        import shutil
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        meta = json.loads((ds / "meta.json").read_text())
        meta["eval_timestamps"] = []
        (ds / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "frames"
        assert main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(ds), "--out", str(out)]) == 0
        frames = list(range(meta["n_frames"]))
        assert json.loads((out / "render_meta.json").read_text())["timestamps"] == frames
        assert sorted(p.name for p in (out / "rgb").iterdir()) == [
            f"{t:04d}.png" for t in frames]


class TestTruncatedFiles:
    @pytest.mark.parametrize("rel, keep", [("blur/0000.png", 40),
                                           ("depth_pseudo/0000.raw", len(DEPTH_MAGIC))])
    def test_truncated_dataset_file(self, tmp_path, dataset_dir, rel, keep):
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        path = ds / rel
        path.write_bytes(path.read_bytes()[:keep])
        res = run_cli("train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                      *TINY_TRAIN)
        assert_clean_error(res, str(path))

    def test_truncated_checkpoint(self, tmp_path, dataset_dir, trained_dir):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes((trained_dir / "checkpoint_final.ckpt").read_bytes()
                         [:len(CHECKPOINT_MAGIC) + 2])
        res = run_cli("render", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                      "--out", str(tmp_path / "frames"))
        assert_clean_error(res, str(ckpt))
        assert not (tmp_path / "frames").exists()


class TestCorruptJson:
    def test_corrupt_checkpoint_header(self, tmp_path, dataset_dir, trained_dir):
        ckpt = tmp_path / "bad.ckpt"
        raw = bytearray((trained_dir / "checkpoint_final.ckpt").read_bytes())
        raw[len(CHECKPOINT_MAGIC) + 4] = ord("#")   # the header's first byte
        ckpt.write_bytes(bytes(raw))
        res = run_cli("render", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                      "--out", str(tmp_path / "frames"))
        assert_clean_error(res, str(ckpt))

    @pytest.mark.parametrize("case", ["no_groups", "unknown_config_key",
                                      "negative_width", "missing_layer",
                                      "trailing_bytes"])
    def test_checkpoint_header_content(self, tmp_path, dataset_dir, trained_dir,
                                       case):
        raw = (trained_dir / "checkpoint_final.ckpt").read_bytes()
        start = len(CHECKPOINT_MAGIC) + 4
        end = start + int.from_bytes(raw[start - 4:start], "little")
        header = json.loads(raw[start:end])
        payload = raw[end:]
        if case == "no_groups":
            del header["groups"]
        elif case == "unknown_config_key":
            header["field_config"]["no_such_key"] = 1
        elif case == "negative_width":
            header["field_config"]["trunk_width"] = -3
        elif case == "missing_layer":
            # a consistent file without the static trunk's second layer
            kept, blobs, at = [], [], 0
            for spec in header["arrays"]:
                n = 8 * int(np.prod(spec["shape"]))
                if spec["name"] != "static.trunk.1.w":
                    kept.append(spec)
                    blobs.append(payload[at:at + n])
                at += n
            header["arrays"], payload = kept, b"".join(blobs)
            del header["groups"]["static.trunk.1.w"]
            del header["adam_t"]["static.trunk.1.w"]
        else:
            payload += bytes(8)
        text = json.dumps(header).encode()
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + len(text).to_bytes(4, "little") + text
                         + payload)
        res = run_cli("render", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                      "--out", str(tmp_path / "frames"))
        assert_clean_error(res, str(ckpt))
        assert res.stderr.startswith(f"error: {ckpt}:"), res.stderr
        assert not (tmp_path / "frames").exists()

    def test_corrupt_dataset_meta(self, tmp_path, dataset_dir):
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        meta = ds / "meta.json"
        meta.write_text("#" + meta.read_text()[1:])
        res = run_cli("train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                      *TINY_TRAIN)
        assert_clean_error(res, str(meta))

    def test_corrupt_config_file(self, tmp_path, dataset_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"x":')
        res = run_cli("train", "--dataset", str(dataset_dir), "--out", str(tmp_path / "run"),
                      "--config", str(cfg))
        assert_clean_error(res, str(cfg))
        assert not (tmp_path / "run").exists()

    def test_corrupt_render_meta(self, tmp_path, dataset_dir):
        frames = tmp_path / "frames"
        frames.mkdir()
        meta = frames / "render_meta.json"
        meta.write_text("#")
        res = run_cli("eval", "--render-dir", str(frames), "--dataset", str(dataset_dir))
        assert_clean_error(res, str(meta))

    # valid JSON of the wrong shape: no timestamps, strings, an index past
    # the last frame, a bool (a boolean index to NumPy), a top-level list
    @pytest.mark.parametrize("text", ['{}', '{"timestamps": ["a"]}',
                                      '{"timestamps": [999]}',
                                      '{"timestamps": [true]}', '[1, 2]'])
    def test_misshapen_render_meta(self, tmp_path, dataset_dir, text):
        frames = tmp_path / "frames"
        frames.mkdir()
        meta = frames / "render_meta.json"
        meta.write_text(text)
        res = run_cli("eval", "--render-dir", str(frames), "--dataset", str(dataset_dir))
        assert_clean_error(res, str(meta))

    @pytest.mark.parametrize("text", ["#", "[]"])
    def test_corrupt_manifest_fails_before_resuming(self, tmp_path, dataset_dir,
                                                    trained_dir, text):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        # as if killed after BRI: resuming would run MDD, log and checkpoint
        shutil.copy(run / "checkpoint_bri.ckpt", run / "checkpoint_latest.ckpt")
        manifest = run / "manifest.json"
        manifest.write_text(text)
        kept = {name: (run / name).read_bytes()
                for name in ("train_log.txt", "checkpoint_latest.ckpt")}
        res = run_cli("train", "--dataset", str(dataset_dir), "--out", str(run),
                      "--seed", "0", *TINY_TRAIN, "--resume")
        assert_clean_error(res, str(manifest))
        for name, data in kept.items():
            assert (run / name).read_bytes() == data, name


class TestEval:
    def test_report_with_baseline_and_iou(self, tmp_path, dataset_dir, trained_dir):
        frames = tmp_path / "frames"
        assert main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(frames),
                     "--pose-source", "eval", "--timestamps", "1,5"]) == 0
        assert main(["eval", "--render-dir", str(frames),
                     "--dataset", str(dataset_dir)]) == 0
        report = json.loads((frames / "report.json").read_text())
        assert report["frame_count"] == 2
        row = report["frames"][0]
        for key in ("psnr", "ssim", "baseline_psnr", "baseline_ssim",
                    "psnr_gain", "mask_iou", "static_p_st"):
            assert key in row
        assert (frames / "report.txt").read_text().startswith("frame")

    def test_eval_without_renders_fails_cleanly(self, tmp_path, dataset_dir):
        code = main(["eval", "--render-dir", str(tmp_path / "empty"),
                     "--dataset", str(dataset_dir)])
        assert code == 1


class TestGradcheckCommand:
    def test_passes_and_reports(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "loss:mdd" in out and "all" in out

    def test_sabotage_fails_naming_op(self, capsys):
        assert main(["gradcheck", "--seed", "1", "--sabotage", "mlp_relu"]) == 2
        captured = capsys.readouterr()
        assert "mlp_relu" in captured.err
