"""The shared helpers' output rules."""

import csv
import io

import numpy as np
import pytest

from mtat.util import csv_text


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
