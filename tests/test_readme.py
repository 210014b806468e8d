"""The README quotes some of the code's block and chunk sizes by value;
each quote must give the value the code holds, so that changing one of
them cannot leave the documentation stale."""

import re
from pathlib import Path

import pytest

from moblurf import autodiff, fields, inference

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
