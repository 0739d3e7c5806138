"""The shared helpers' output rules."""

import csv
import io

import numpy as np
import pytest

from mtat.util import aligned_empty, csv_text


@pytest.mark.parametrize(
    "rows, text",
    [
        ([], "a,b\n"),
        # Floats, numpy's too, by repr of the Python float; integers by str.
        (
            [(0.1, np.float64(1e-300)), (1, np.float32(0.1))],
            "a,b\n0.1,1e-300\n1,0.10000000149011612\n",
        ),
        ([(None, "x"), (None, None)], "a,b\n,x\n,\n"),
        (
            [("x,y", 'say "hi"'), ("two\nlines", "plain")],
            'a,b\n"x,y","say ""hi"""\n"two\nlines",plain\n',
        ),
    ],
    ids=["no-rows", "floats", "none", "quoting"],
)
def test_csv_text_writes_each_rule(rows, text):
    got = csv_text(["a", "b"], rows)
    assert got == text
    assert "np.float" not in got and "\r" not in got and got.endswith("\n")
    back = list(csv.reader(io.StringIO(got)))
    assert back[0] == ["a", "b"] and len(back) == len(rows) + 1
    for row, read in zip(rows, back[1:]):
        assert all(field == value for value, field in zip(row, read) if isinstance(value, str))


@pytest.mark.parametrize("size", [1, 7, 4096, 65535])
def test_aligned_empty_starts_on_a_cache_line_and_bases_its_views(size):
    block = aligned_empty(size)
    assert block.shape == (size,) and block.dtype == np.float64
    assert block.__array_interface__["data"][0] % 64 == 0 and block.flags.writeable
    view = block[1:].reshape(-1, 1)[::2]
    assert view.base is block  # a view's life keeps the block's reference count up
    view[...] = 3.0
    assert np.all(block[1::2] == 3.0)
