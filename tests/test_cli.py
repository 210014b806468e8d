import argparse
import dataclasses
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
from moblurf.cli import build_parser, main
from moblurf.config import ConfigError, TrainConfig, resolve_config
from moblurf.data import DEPTH_MAGIC
from moblurf.fields import CHECKPOINT_MAGIC, load_checkpoint
from test_scene_data import png_with_empty_ihdr

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


def rewrite_header(src: Path, dst: Path, edit) -> None:
    """Copy the checkpoint ``src`` to ``dst`` with ``edit`` applied to its
    parsed JSON header."""
    raw = src.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 4
    end = start + int.from_bytes(raw[start - 4:start], "little")
    header = json.loads(raw[start:end])
    edit(header)
    text = json.dumps(header).encode()
    dst.write_bytes(CHECKPOINT_MAGIC + len(text).to_bytes(4, "little") + text + raw[end:])


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
        # synth trains nothing: its manifest records no training config
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth" and manifest["seed"] == 0
        assert manifest["preset"] == "moving-quad-64" and "config" not in manifest

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
        # there is one set of defaults, and no profile to name
        assert "profile" not in manifest and "profile" not in manifest["config"]
        assert "bri_seconds" in manifest["timings"]

    @pytest.mark.parametrize("size", [{"width": 1}, {"height": 1}], ids=["w1", "h1"])
    def test_one_pixel_frames_are_refused(self, tmp_path, capsys, size):
        # the lg loss samples each pixel's right and down neighbours: such
        # frames once died in sampling with "error: high <= 0"
        from moblurf.data import synthesize_dataset, write_dataset
        from moblurf.scene import static_scene
        scene = dataclasses.replace(static_scene(size=8, n_frames=2), **size)
        ds = tmp_path / "ds"
        write_dataset(synthesize_dataset(scene, seed=0), ds)
        h, w = scene.height, scene.width
        assert main(["train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                     *TINY_TRAIN]) == 1
        err = capsys.readouterr().err
        assert f"frames of {w}x{h} pixels" in err and "right and down neighbours" in err
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("text, kind", [
        ("5", "int"), ('"desk"', "str"), ("[1, 2]", "list"), ("null", "NoneType")])
    def test_config_file_that_is_not_an_object(self, tmp_path, dataset_dir, text, kind):
        # each once passed the file check: 5 died with a TypeError traceback,
        # "desk" and [1, 2] were read as lists of keys, null as no file
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        out = tmp_path / "run"
        res = run_cli("train", "--dataset", str(dataset_dir), "--out", str(out),
                      *TINY_TRAIN, "--config", str(cfg_file))
        assert res.returncode == 1
        assert res.stderr == f"error: {cfg_file}: expected a JSON object, got {kind}\n"
        assert not out.exists()

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

    def test_resume_without_a_checkpoint_writes_a_new_manifest(self, tmp_path,
                                                                dataset_dir):
        # the run starts over without a checkpoint to go on from; its
        # manifest once kept the first run's, which named seed 0
        out = tmp_path / "run"
        args = ["train", "--dataset", str(dataset_dir), "--out", str(out), *TINY_TRAIN]
        assert main(args + ["--seed", "0"]) == 0
        (out / "checkpoint_latest.ckpt").unlink()
        assert main(args + ["--seed", "5", "--resume"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        _, meta = load_checkpoint(out / "checkpoint_final.ckpt")
        assert meta["train_state"]["config"]["seed"] == 5
        assert manifest["seed"] == manifest["config"]["seed"] == 5

    def test_resume_refuses_settings_the_run_did_not_start_with(
            self, tmp_path, dataset_dir, trained_dir, capsys):
        # such a resume once trained on with them and exited 0, while the
        # manifest kept the first run's values
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        ckpt = run / "checkpoint_latest.ckpt"
        shutil.copy(run / "checkpoint_bri.ckpt", ckpt)   # as if killed after BRI
        kept = tree_bytes(run)
        code = main(["train", "--dataset", str(dataset_dir), "--out", str(run),
                     "--seed", "7", *TINY_TRAIN, "--set", "lambda_lg=0",
                     "--set", "mdd_iters=3", "--resume"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: {ckpt}: this run's config"), err
        for why in ("seed is 7, not 0", "mdd_iters is 3, not 2", "lambda_lg is 0, not 0.075"):
            assert why in err, err
        assert tree_bytes(run) == kept

    @pytest.mark.parametrize("edit, code, why", [
        (lambda c: c.update(lg_dynamic_only_mdd=True), 0, None),
        (lambda c: c.pop("lambda_sm"), 1, "lambda_sm is 0.002, not stored"),
    ], ids=["dropped_key", "missing_key"])
    def test_resume_ignores_dropped_keys_and_refuses_missing_ones(
            self, tmp_path, dataset_dir, trained_dir, capsys, edit, code, why):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        rewrite_header(run / "checkpoint_bri.ckpt", run / "checkpoint_latest.ckpt",
                       lambda h: edit(h["meta"]["train_state"]["config"]))
        capsys.readouterr()
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(run),
                     "--seed", "0", *TINY_TRAIN, "--resume"]) == code
        assert why is None or why in capsys.readouterr().err

    def test_desk_profile_is_the_default_config(self):
        # train resolves the defaults; render falls back to TrainConfig()
        # for a checkpoint without a config: the two must agree
        assert resolve_config("desk") == resolve_config() == TrainConfig()
        with pytest.raises(ConfigError, match="paper"):
            resolve_config("paper")

    def test_unknown_config_key_rejected(self, tmp_path, dataset_dir):
        code = main(["train", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "x"), "--set", "no_such_knob=1"])
        assert code == 1

    @pytest.mark.parametrize("value", [
        "debug_freeze_check=true", "lg_fraction=0.25", "activation=softplus",
        "profile=paper", "lg_dynamic_only_mdd=false"])
    def test_removed_config_key_rejected(self, tmp_path, dataset_dir, capsys, value):
        # these were options once; every run set the first three and the
        # last alike, and they are code now; resolve_config overwrote profile
        # with the profile flag, so a value set here was silently ignored
        out = tmp_path / "run"
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                     *TINY_TRAIN, "--set", value]) == 1
        assert value.partition("=")[0] in capsys.readouterr().err
        assert not out.exists()

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

    def test_each_command_takes_only_the_flags_it_reads(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {name: {s for a in p._actions for s in a.option_strings}
                   for name, p in subparsers.choices.items()}
        every = {"-h", "--help", "--threads"}
        assert options == {
            "synth": every | {"--preset", "--out", "--seed", "--force"},
            "train": every | {"--dataset", "--out", "--config", "--set", "--resume",
                              "--progress", "--seed"},
            "render": every | {"--checkpoint", "--dataset", "--out", "--pose-source",
                               "--pose-file", "--timestamps"},
            "eval": every | {"--render-dir", "--dataset", "--out"},
            "gradcheck": every | {"--seed"},
        }

    # the flags each once parsed and ignored (synth recorded a training
    # config it never used, render a seed it never drew from), train's
    # profile flag, which named the one set of defaults or a scale no run
    # could train, the hidden gradcheck test hook, and thread counts below
    # one, which synth exported as OPENBLAS_NUM_THREADS=-2
    @pytest.mark.parametrize("args, why", [
        (["train", "--dataset", "{tmp}/d", "--out", "{tmp}/o", "--profile", "desk"],
         "--profile"),
        (["train", "--dataset", "{tmp}/d", "--out", "{tmp}/o", "--force"], "--force"),
        (["render", "--checkpoint", "{tmp}/c", "--dataset", "{tmp}/d", "--out", "{tmp}/o",
          "--profile", "desk"], "--profile"),
        (["render", "--checkpoint", "{tmp}/c", "--dataset", "{tmp}/d", "--out", "{tmp}/o",
          "--force"], "--force"),
        (["eval", "--render-dir", "{tmp}/r", "--dataset", "{tmp}/d", "--seed", "1"],
         "--seed"),
        (["eval", "--render-dir", "{tmp}/r", "--dataset", "{tmp}/d", "--profile", "paper"],
         "--profile"),
        (["eval", "--render-dir", "{tmp}/r", "--dataset", "{tmp}/d", "--force"], "--force"),
        (["gradcheck", "--profile", "desk"], "--profile"),
        (["gradcheck", "--force"], "--force"),
        (["gradcheck", "--sabotage", "x"], "--sabotage"),
        (["gradcheck", "--threads", "0"], "--threads: must be >= 1"),
        (["synth", "--out", "{tmp}/o", "--threads", "-2"], "--threads: must be >= 1"),
        (["synth", "--out", "{tmp}/o", "--profile", "desk"], "--profile"),
        (["render", "--checkpoint", "{tmp}/c", "--dataset", "{tmp}/d", "--out", "{tmp}/o",
          "--seed", "1"], "--seed"),
    ], ids=["train_profile", "train_force", "render_profile", "render_force", "eval_seed",
            "eval_profile", "eval_force", "gradcheck_profile", "gradcheck_force",
            "gradcheck_sabotage", "threads_0", "threads_negative", "synth_profile",
            "render_seed"])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys,
                                                             monkeypatch, args, why):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in args])
        assert exc.value.code == 1
        assert why in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert "OPENBLAS_NUM_THREADS" not in os.environ

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
        # each frame's render seconds, in timestamp order
        meta = json.loads((out / "render_meta.json").read_text())
        assert meta["timestamps"] == [1, 5]
        assert len(meta["render_seconds"]) == 2
        assert all(type(s) is float and 0 < s < 60 for s in meta["render_seconds"])

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

    # a token that is no number once escaped as a bare ValueError; a NaN
    # or infinite center rendered NaN pixels and exited 2
    @pytest.mark.parametrize("line, why", [
        ("1 0 0 0 0 1 0 0 0 0 1 abc", "could not convert"),
        ("1 0 0 nan 0 1 0 0 0 0 1 0", "must be finite"),
        ("1 0 0 0 0 1 0 -inf 0 0 1 0", "must be finite"),
    ], ids=["text", "nan_center", "inf_center"])
    def test_pose_file_with_bad_values(self, tmp_path, dataset_dir, trained_dir,
                                       capsys, line, why):
        code = self._render_pose_file(tmp_path, dataset_dir, trained_dir, line)
        err = capsys.readouterr().err
        assert code == 1 and f"{tmp_path / 'poses.txt'}:1: " in err and why in err, err
        assert not (tmp_path / "frames" / "rgb" / "0002.png").exists()

    def test_non_finite_render_is_numerical_error(self, tmp_path, dataset_dir,
                                                  trained_dir):
        # a checkpoint inside float32's range loads, but the static trunk's
        # last layer outputs 3e38, the RGB head's first layer sums those
        # into inf, and its output layer sums inf and -inf into NaN pixels
        from moblurf.fields import load_checkpoint, save_checkpoint
        model, meta = load_checkpoint(trained_dir / "checkpoint_final.ckpt")
        values = model.store.values
        values["static.trunk.1.w"][:] = 0.0
        values["static.trunk.1.b"][:] = 3e38
        values["static.rgb.0.w"][:] = 1.0
        values["static.rgb.1.w"][0::2] = 1.0
        values["static.rgb.1.w"][1::2] = -1.0
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, model, meta)
        out = tmp_path / "frames"
        res = run_cli("render", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                      "--out", str(out), "--pose-source", "eval", "--timestamps", "1")
        assert res.returncode == 2, res.stderr
        assert "numerical failure: non-finite pixels" in res.stderr, res.stderr
        assert not (out / "rgb" / "0001.png").exists()

    def test_manifest_records_checkpoint_config(self, tmp_path, dataset_dir,
                                                trained_dir):
        # the run trained with TINY_TRAIN's overrides, not the desk profile's
        out = tmp_path / "frames"
        assert main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(out),
                     "--timestamps", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        trained = json.loads((trained_dir / "manifest.json").read_text())
        assert manifest["config"] == trained["config"]
        assert manifest["config"]["trunk_width"] == 16
        assert manifest["config"]["n_samples"] == 8
        # render draws nothing: the seed is the trained one
        assert manifest["seed"] == trained["seed"] == manifest["config"]["seed"]

    def test_checkpoint_with_older_config_keys_renders_the_same(
            self, tmp_path, dataset_dir, trained_dir):
        # a checkpoint written before five options became code or went
        # stores them in its config; render reads only n_samples from it
        from moblurf.fields import load_checkpoint, save_checkpoint
        model, meta = load_checkpoint(trained_dir / "checkpoint_final.ckpt")
        outs = {}
        for name, extra in (("now", {}), ("older", {
                "activation": "relu", "lg_fraction": 0.25, "debug_freeze_check": False,
                "profile": "desk", "lg_dynamic_only_mdd": True})):
            ckpt = tmp_path / f"{name}.ckpt"
            state = dict(meta["train_state"])
            state["config"] = {**state["config"], **extra}
            save_checkpoint(ckpt, model, {**meta, "train_state": state})
            outs[name] = tmp_path / name
            assert main(["render", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                         "--out", str(outs[name]), "--timestamps", "1,5"]) == 0
            config = json.loads((outs[name] / "manifest.json").read_text())["config"]
            assert config == state["config"]
        assert len(config) == 30
        for sub in ("rgb", "mask", "p_dy", "kappa"):
            assert tree_bytes(outs["now"] / sub) == tree_bytes(outs["older"] / sub)

    def test_checkpoint_naming_the_relu_trunk_renders_the_same(
            self, tmp_path, dataset_dir, trained_dir):
        # checkpoints written while the trunk activation was an architecture
        # option store "activation": "relu" in their field_config
        final = trained_dir / "checkpoint_final.ckpt"
        relu = tmp_path / "relu.ckpt"
        rewrite_header(final, relu, lambda h: h["field_config"].update(activation="relu"))
        outs = {}
        for name, ckpt in (("now", final), ("relu", relu)):
            outs[name] = tmp_path / name
            assert main(["render", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                         "--out", str(outs[name]), "--timestamps", "1,5"]) == 0
        for sub in ("rgb", "mask", "p_dy", "kappa"):
            assert tree_bytes(outs["now"] / sub) == tree_bytes(outs["relu"] / sub)

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
        # render_frames' rule: no eval_timestamps means every frame
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


class TestNonFiniteFiles:
    @pytest.mark.parametrize("rel", ["depth_pseudo/0000.raw", "depth_true/0000.raw"])
    def test_non_finite_dataset_depth(self, tmp_path, dataset_dir, rel):
        # a NaN pseudo-depth once trained to exit 0: lg_loss dropped its
        # pixels as degenerate
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        path = ds / rel
        raw = path.read_bytes()
        head = len(DEPTH_MAGIC) + 8     # magic, height and width
        nan = np.full((len(raw) - head) // 4, np.nan, "<f4")
        path.write_bytes(raw[:head] + nan.tobytes())
        res = run_cli("train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                      *TINY_TRAIN)
        assert_clean_error(res, str(path))
        assert not (tmp_path / "run").exists()

    def test_non_finite_rendered_depth_fails_eval(self, tmp_path, dataset_dir,
                                                  trained_dir, capsys):
        from moblurf.data import write_depth_raw
        frames = tmp_path / "frames"
        assert main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(frames),
                     "--timestamps", "1"]) == 0
        path = frames / "p_dy" / "0001.raw"
        p_dy = np.zeros((64, 64))
        p_dy[3, 5] = np.inf
        write_depth_raw(path, p_dy)
        assert main(["eval", "--render-dir", str(frames),
                     "--dataset", str(dataset_dir)]) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: depth values are not all finite\n"
        assert not (frames / "report.json").exists()

    # a NaN weight, or a field weight whose float32 copy is inf, once loaded
    # and rendered to a numerical failure (exit 2); a negative Adam v would
    # have turned the first resumed update into NaN
    @pytest.mark.parametrize("kind, name, bad, command, why", [
        ("value", "static.trunk.1.w", np.nan, "render", "is not all finite"),
        ("value", "static.rgb.0.b", 1e300, "render", "is beyond float32's range"),
        ("value", "dynamic.trunk.0.w", -1e39, "resume", "is beyond float32's range"),
        ("adam_m", "dynamic.rgb.0.b", -np.inf, "render", "is not all finite"),
        ("adam_v", "glo", np.nan, "resume", "is not all finite"),
        ("adam_v", "local.mlp.0.w", -1e-12, "resume", "has a negative entry")],
        ids=["nan_value", "huge_field_value", "huge_field_value_resume",
             "inf_adam_m", "nan_adam_v", "negative_adam_v"])
    def test_bad_checkpoint_entry(self, tmp_path, dataset_dir, trained_dir, kind,
                                  name, bad, command, why):
        from moblurf.fields import ARRAY_KINDS, load_checkpoint, save_checkpoint
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        ckpt = run / "checkpoint_latest.ckpt"
        model, meta = load_checkpoint(run / "checkpoint_bri.ckpt")
        getattr(model.store, ARRAY_KINDS[kind])[name].flat[0] = bad
        save_checkpoint(ckpt, model, meta)
        if command == "resume":
            res = run_cli("train", "--dataset", str(dataset_dir), "--out", str(run),
                          "--seed", "0", *TINY_TRAIN, "--resume")
        else:
            res = run_cli("render", "--checkpoint", str(ckpt), "--dataset",
                          str(dataset_dir), "--out", str(tmp_path / "frames"))
        assert res.returncode == 1, res.stderr
        assert res.stderr == f"error: {ckpt}: {kind} of {name} {why}\n"
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
                                      "trailing_bytes", "no_n_samples",
                                      "zero_n_samples", "softplus_trunk"])
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
        elif case == "no_n_samples":
            # render reads n_samples alone from the stored training config
            del header["meta"]["train_state"]["config"]["n_samples"]
        elif case == "zero_n_samples":
            header["meta"]["train_state"]["config"]["n_samples"] = 0
        elif case == "softplus_trunk":
            # the trunks are relu MLPs; no other activation loads
            header["field_config"]["activation"] = "softplus"
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

    def test_negative_adam_count_fails_before_any_frame(self, tmp_path, dataset_dir,
                                                       trained_dir):
        # it once loaded, and the next Adam step divided 0/0 into the weights
        ckpt = tmp_path / "bad.ckpt"
        rewrite_header(trained_dir / "checkpoint_final.ckpt", ckpt,
                       lambda h: h["adam_t"].update({"glo": -1}))
        res = run_cli("render", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                      "--out", str(tmp_path / "frames"))
        assert res.returncode == 1
        assert res.stderr == f"error: {ckpt}: adam_t of glo is -1, not an integer >= 0\n"
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("case", ["meta_list", "train_state_string",
                                      "render_without_train_state",
                                      "resume_without_train_state"])
    def test_meta_without_train_state_object(self, tmp_path, dataset_dir, trained_dir,
                                             case):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        ckpt = run / "checkpoint_latest.ckpt"

        def edit(header):
            if case == "meta_list":
                header["meta"] = []
            elif case == "train_state_string":
                header["meta"]["train_state"] = "x"
            else:
                del header["meta"]["train_state"]

        rewrite_header(run / "checkpoint_bri.ckpt", ckpt, edit)
        if case == "resume_without_train_state":
            res = run_cli("train", "--dataset", str(dataset_dir), "--out", str(run),
                          "--seed", "0", *TINY_TRAIN, "--resume")
        else:
            res = run_cli("render", "--checkpoint", str(ckpt), "--dataset",
                          str(dataset_dir), "--out", str(tmp_path / "frames"))
            assert not (tmp_path / "frames").exists()
        assert_clean_error(res, str(ckpt))

    # each once trusted by a resume: a stage in capitals skipped BRI and
    # exited 0, a text iteration, text timings or a text log length died
    # with a TypeError traceback, an iteration past the stage's end skipped
    # the rest of it, a missing stage or an empty RNG state printed no file
    # name, and a log length past the log's end padded it with NUL bytes
    @pytest.mark.parametrize("key, value", [
        ("stage", "BRI"), ("iteration", "3"), ("iteration", True), ("iteration", -1),
        ("stage", None), ("rng_state", {}), ("timings", 5), ("log_bytes", "x"),
        ("iteration", 999), ("log_bytes", 100_000),
    ], ids=["stage_capitals", "iteration_text", "iteration_bool", "iteration_negative",
            "no_stage", "rng_state_empty", "timings_number", "log_bytes_text",
            "iteration_past_stage", "log_bytes_past_the_log"])
    def test_resume_checks_train_state_before_any_step(self, tmp_path, dataset_dir,
                                                       trained_dir, capsys, key, value):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        ckpt = run / "checkpoint_latest.ckpt"

        def edit(header):
            state = header["meta"]["train_state"]
            if value is None:
                del state[key]
            else:
                state[key] = value

        rewrite_header(run / "checkpoint_bri.ckpt", ckpt, edit)
        kept = tree_bytes(run)
        code = main(["train", "--dataset", str(dataset_dir), "--out", str(run),
                     "--seed", "0", *TINY_TRAIN, "--resume"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: {ckpt}: train_state {key}"), err
        assert tree_bytes(run) == kept

    # a checkpoint of another dataset's frame count once trained on and
    # exited 0, and one of another trunk width silently replaced it
    @pytest.mark.parametrize("preset, extra, why", [
        ("moving-quad-64", [], "n_frames is 8, not 24"),
        (None, ["--set", "trunk_width=8"], "trunk_width is 16, not 8"),
    ], ids=["other_frame_count", "other_trunk_width"])
    def test_resume_rejects_checkpoint_of_another_model(self, tmp_path, dataset_dir,
                                                         trained_dir, capsys, preset,
                                                         extra, why):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        ckpt = run / "checkpoint_latest.ckpt"
        assert ckpt.exists()
        dataset = dataset_dir
        if preset:
            dataset = tmp_path / "ds"
            assert main(["synth", "--preset", preset, "--out", str(dataset)]) == 0
        kept = tree_bytes(run)
        capsys.readouterr()
        code = main(["train", "--dataset", str(dataset), "--out", str(run),
                     "--seed", "0", *TINY_TRAIN, *extra, "--resume"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: {ckpt}: field_config"), err
        assert why in err, err
        assert tree_bytes(run) == kept

    def test_corrupt_dataset_meta(self, tmp_path, dataset_dir):
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        meta = ds / "meta.json"
        meta.write_text("#" + meta.read_text()[1:])
        res = run_cli("train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                      *TINY_TRAIN)
        assert_clean_error(res, str(meta))

    # valid JSON of the wrong shape, each once read past the check: an
    # AttributeError traceback, a bare key, int() of text, an empty stack,
    # near and far swapped failing in sampling without the file's name
    @pytest.mark.parametrize("edit, why", [
        (list, "JSON object"),
        (lambda m: {k: v for k, v in m.items() if k != "n_frames"}, "missing n_frames"),
        (lambda m: {k: v for k, v in m.items() if k != "fx"}, "missing fx"),
        (lambda m: {**m, "height": "x"}, "height must be a positive integer"),
        (lambda m: {**m, "n_frames": -1}, "n_frames must be a positive integer"),
        (lambda m: {**m, "width": True}, "width must be a positive integer"),
        (lambda m: {**m, "width": 64.0}, "width must be a positive integer"),
        (lambda m: {**m, "fx": float("nan")}, "fx must be a finite number"),
        (lambda m: {**m, "cy": "32"}, "cy must be a finite number"),
        (lambda m: {**m, "fy": 0}, "fx and fy must be positive"),
        (lambda m: {**m, "near": m["far"], "far": m["near"]}, "0 < near < far"),
        (lambda m: {**m, "near": 0.0}, "0 < near < far"),
        (lambda m: {**m, "eval_timestamps": [m["n_frames"]]}, "eval_timestamps"),
        (lambda m: {**m, "eval_timestamps": [-1]}, "eval_timestamps"),
        (lambda m: {**m, "eval_timestamps": 1}, "eval_timestamps"),
    ], ids=["list", "no_n_frames", "no_fx", "height_text", "n_frames_negative",
            "width_bool", "width_float", "fx_nan", "cy_text", "fy_zero",
            "near_far_swapped", "near_zero", "eval_past_last_frame",
            "eval_negative", "eval_not_list"])
    def test_misshapen_dataset_meta(self, tmp_path, dataset_dir, capsys, edit, why):
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        meta = ds / "meta.json"
        meta.write_text(json.dumps(edit(json.loads(meta.read_text()))))
        code = main(["train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                     *TINY_TRAIN])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and str(meta) in err, err
        assert why in err, err

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

    @pytest.mark.parametrize("rel", ["rgb/0001.png", "mask/0001.png", "p_dy/0001.raw"])
    def test_misshapen_map_names_the_file(self, tmp_path, dataset_dir, trained_dir,
                                          capsys, rel):
        from moblurf.data import write_depth_raw
        from moblurf.pngio import write_png
        frames = tmp_path / "frames"
        assert main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(frames),
                     "--timestamps", "1"]) == 0
        path = frames / rel
        if rel.startswith("rgb"):
            write_png(path, np.zeros((8, 8, 3), dtype=np.uint8))
        elif rel.startswith("mask"):
            write_png(path, np.zeros((8, 8), dtype=np.uint8))
        else:
            write_depth_raw(path, np.zeros((8, 8)))
        assert main(["eval", "--render-dir", str(frames),
                     "--dataset", str(dataset_dir)]) == 1
        assert str(path) in capsys.readouterr().err
        assert not (frames / "report.json").exists()

    def test_missing_frame_names_the_file(self, tmp_path, dataset_dir, trained_dir, capsys):
        frames = tmp_path / "frames"
        assert main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(frames),
                     "--timestamps", "1"]) == 0
        path = frames / "rgb" / "0001.png"
        path.unlink()
        assert main(["eval", "--render-dir", str(frames),
                     "--dataset", str(dataset_dir)]) == 1
        assert capsys.readouterr().err == f"error: missing rendered frame {path}\n"

    def test_frame_with_an_empty_ihdr_names_the_file(self, tmp_path, dataset_dir,
                                                     trained_dir, capsys):
        frames = tmp_path / "frames"
        assert main(["render", "--checkpoint", str(trained_dir / "checkpoint_final.ckpt"),
                     "--dataset", str(dataset_dir), "--out", str(frames),
                     "--timestamps", "1"]) == 0
        path = frames / "rgb" / "0001.png"
        path.write_bytes(png_with_empty_ihdr())
        assert main(["eval", "--render-dir", str(frames),
                     "--dataset", str(dataset_dir)]) == 1
        assert capsys.readouterr().err == f"error: {path}: IHDR has 0 bytes, not 13\n"
        assert not (frames / "report.json").exists()

    def test_eval_without_renders_fails_cleanly(self, tmp_path, dataset_dir):
        code = main(["eval", "--render-dir", str(tmp_path / "empty"),
                     "--dataset", str(dataset_dir)])
        assert code == 1


class TestGradcheckCommand:
    def test_passes_and_reports(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "loss:mdd" in out and "all" in out

    def test_sabotage_fails_naming_op(self, capsys, wrong_gradients):
        with wrong_gradients():
            assert main(["gradcheck", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "gradient check FAILED for: " in err and "mlp_relu" in err, err
