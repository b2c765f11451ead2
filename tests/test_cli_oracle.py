"""Property test: qrelay.cli's column-wise CSV writer against the
cell-by-cell formatter in tests/oracles.py, byte for byte."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import csv_text  # noqa: E402
from qrelay import cli  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e-300, 1e300, 5e-324)
FLOATS = hs.one_of(hs.sampled_from(SPECIAL_FLOATS), hs.floats(allow_nan=True, allow_infinity=True))
INTS = hs.integers(-(2**70), 2**70)
# (cells, as a numpy array too): every column of a table is of one kind
KINDS = (
    (FLOATS, True),
    (FLOATS.map(np.float64), False),
    (INTS, False),
    (hs.integers(-(2**63), 2**63 - 1), True),
    (hs.booleans(), True),
    (hs.text(alphabet="abc-_%s ", max_size=6), False),
)


@hs.composite
def tables(draw):
    """Equal-length columns of 0 to 6 rows, each of one kind of cell, as a
    list or, for floats, int64 and bools, sometimes as a numpy array."""
    n_rows = draw(hs.integers(0, 6))
    columns = []
    for _ in range(draw(hs.integers(1, 4))):
        cells, as_array = draw(hs.sampled_from(KINDS))
        column = draw(hs.lists(cells, min_size=n_rows, max_size=n_rows))
        columns.append(np.array(column) if as_array and n_rows and draw(hs.booleans()) else column)
    return columns


@pytest.mark.parametrize("block", [2, cli._CSV_BLOCK])
@PROPERTY_SETTINGS
@given(columns=tables())
@example(columns=[[math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300], [1, 2, 3, 4, 5, 10**12],
                  ["x", "", "a b", "%s", "-", "_"], [True, False, True, True, False, False]])
@example(columns=[[], []])
def test_write_csv_matches_cell_by_cell_oracle(tmp_path_factory, block, columns):
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    with mock.patch.object(cli, "_CSV_BLOCK", block):
        cli._write_csv(str(path), header, columns)
    assert path.read_bytes() == csv_text(header, zip(*columns)).encode("utf-8")
