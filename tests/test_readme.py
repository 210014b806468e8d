"""The README quotes some of the code's block and chunk sizes, the number
of checks ``moblurf gradcheck`` runs, the default config and the paper's
config file, by value; each quote must give the value the code holds, so
that changing one of them cannot leave the documentation stale."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from moblurf import autodiff, gradcheck, inference
from moblurf.config import TrainConfig, resolve_config
from moblurf.fields import ENCODE_BLOCK, Architecture

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("quote, value", [
    (r"`FORWARD_BLOCK` \((\d+)\)", autodiff.FORWARD_BLOCK),
    (r"`BLOCK` \((\d+)\)", autodiff.BLOCK),
    (r"`ENCODE_BLOCK` \((\d+)\)", ENCODE_BLOCK),
    (r"`inference\.CHUNK` = (\d+)", inference.CHUNK),
], ids=["FORWARD_BLOCK", "BLOCK", "ENCODE_BLOCK", "CHUNK"])
def test_readme_quotes_the_value_the_code_holds(quote, value):
    quoted = [int(n) for n in re.findall(quote, README)]
    assert quoted and all(n == value for n in quoted), (quoted, value)


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
    counts = re.findall(r"The (\d+) config keys are the (\d+) of the architecture", README)
    assert counts == [(str(len(fields(TrainConfig))), str(len(fields(Architecture))))]


def test_readme_paper_config_is_a_valid_config_file():
    blocks = re.findall(r"```json\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    values = json.loads(blocks[0])
    cfg = resolve_config("desk", file_values=values)
    assert {k: getattr(cfg, k) for k in values} == values
    assert (cfg.n_samples, cfg.n_latent, cfg.trunk_depth, cfg.trunk_width) == (128, 6, 9, 256)
