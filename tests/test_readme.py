"""The README quotes some of the code's block and chunk sizes, and the
number of checks ``moblurf gradcheck`` runs, by value; each quote must give
the value the code holds, so that changing one of them cannot leave the
documentation stale."""

import re
from pathlib import Path

import numpy as np
import pytest

from moblurf import autodiff, fields, gradcheck, inference

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("quote, value", [
    (r"`FORWARD_BLOCK` \((\d+)\)", autodiff.FORWARD_BLOCK),
    (r"`BLOCK` \((\d+)\)", autodiff.BLOCK),
    (r"`ENCODE_BLOCK` \((\d+)\)", fields.ENCODE_BLOCK),
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
