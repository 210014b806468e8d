"""The README quotes some of the code's block and chunk sizes, the blur
window, the number of checks ``moblurf gradcheck`` runs, the default config,
the retired config keys' fixed values, the paper's config file and the
per-frame files of the dataset and render directory layouts, by value;
each quote must give the value the code holds, so that changing one of
them cannot leave the documentation stale."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from moblurf import autodiff, data, gradcheck, inference
from moblurf.config import TrainConfig, resolve_config
from moblurf.fields import ENCODE_BLOCK, RETIRED, Architecture

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("quote, value", [
    (r"`FORWARD_BLOCK` \((\d+)\)", autodiff.FORWARD_BLOCK),
    (r"`FORWARD_SPAN` \((\d+)\)", autodiff.FORWARD_SPAN),
    (r"`ENCODE_BLOCK` \((\d+)\)", ENCODE_BLOCK),
    (r"`inference\.CHUNK` = (\d+)", inference.CHUNK),
], ids=["FORWARD_BLOCK", "FORWARD_SPAN", "ENCODE_BLOCK", "CHUNK"])
def test_readme_quotes_the_value_the_code_holds(quote, value):
    quoted = [int(n) for n in re.findall(quote, README)]
    assert quoted and all(n == value for n in quoted), (quoted, value)


def test_readme_quotes_the_blur_window():
    quoted = re.findall(r"(\d+)x-subsampled exposure averages of (\d+)\s+sub-frames",
                        README)
    assert quoted == [(str(data.SUBRATE), str(2 * data.WINDOW + 1))]


def test_readme_counts_the_checks_gradcheck_runs():
    # the op cases, built and not run, and the three stage losses
    ops = len(gradcheck._op_cases(np.random.default_rng(0)))
    assert re.findall(r"`gradcheck` runs (\d+) checks", README) == [str(ops + 3)]
    assert re.findall(r"(\d+) op cases", README) == [str(ops)]


def test_readme_quotes_the_defaults():
    cfg = TrainConfig()
    quoted = re.findall(r"N=(\d+) samples/ray, (\d+) latent rays,\s+(\d+)\+(\d+) "
                        r"iterations, (\d+)x(\d+) trunk", README)
    assert quoted == [tuple(str(v) for v in (
        cfg.n_samples, cfg.n_latent, cfg.bri_iters, cfg.mdd_iters,
        cfg.trunk_depth, cfg.trunk_width))]
    counts = re.findall(r"The (\d+) config keys are the (\d+) of the architecture"
                        r".*?and (\d+) of training", README, re.S)
    n, arch = len(fields(TrainConfig)), len(fields(Architecture))
    assert counts == [(str(n), str(arch), str(n - arch))]


def test_readme_lists_the_retired_keys_at_their_fixed_values():
    table = re.search(r"\| retired key \| fixed value \|\n\|---\|---\|\n((?:\|.*\n)+)", README)
    rows = re.findall(r"^\| `(\w+)` \| `?(.*?)`? \|$", table[1], re.M)
    assert {key: json.loads(value) for key, value in rows} == RETIRED
    assert len(rows) == len(RETIRED)


def test_readme_paper_config_is_a_valid_config_file():
    blocks = re.findall(r"```json\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    values = json.loads(blocks[0])
    cfg = resolve_config("desk", file_values=values)
    assert {k: getattr(cfg, k) for k in values} == values
    assert (cfg.n_samples, cfg.n_latent, cfg.trunk_depth, cfg.trunk_width) == (128, 6, 9, 256)


def test_readme_layouts_name_the_frame_files_data_writes():
    # each layout block's per-frame lines, as "sub/0000.ext", against the
    # file data.frame_path names; the two blocks together list every
    # directory of data.FRAME_KINDS
    listed = {}
    for layout in ("Dataset", "Render"):
        block = re.search(rf"## {layout} directory layout\n.*?```\n(.*?)```", README, re.S)
        listed[layout] = re.findall(r"^(\w+)/(\d{4})\.(\w+) \.\.\.", block[1], re.M)
    assert [sub for sub, _, _ in listed["Dataset"]] == [
        "blur", "sharp", "depth_pseudo", "depth_true", "mask_true"]
    assert [sub for sub, _, _ in listed["Render"]] == ["rgb", "mask", "p_dy", "kappa"]
    for sub, t, ext in listed["Dataset"] + listed["Render"]:
        assert data.frame_path(Path(), sub, int(t)) == Path(sub, f"{t}.{ext}")
    assert sorted(sub for sub, _, _ in listed["Dataset"] + listed["Render"]) == \
        sorted(data.FRAME_KINDS)
