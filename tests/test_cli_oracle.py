"""Property test: qrelay.cli's column-wise CSV writer against the
cell-by-cell formatter in tests/oracles.py, byte for byte."""

import math

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
CELLS = hs.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    INTS,
    hs.booleans(),
    hs.text(alphabet="abc-_%s ", max_size=6),
)


@hs.composite
def tables(draw):
    """Equal-length columns, each all floats, all integers, or mixed cells."""
    n_rows = draw(hs.integers(0, 6))
    columns = []
    for _ in range(draw(hs.integers(1, 4))):
        cells = draw(hs.sampled_from((FLOATS, INTS, CELLS)))
        columns.append(draw(hs.lists(cells, min_size=n_rows, max_size=n_rows)))
    return columns


@PROPERTY_SETTINGS
@given(tables())
@example([[math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300], [1, "x", 2.5, -0.0, 10**12, True]])
def test_write_csv_matches_cell_by_cell_oracle(tmp_path_factory, columns):
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    cli._write_csv(str(path), header, columns)
    assert path.read_bytes() == csv_text(header, zip(*columns)).encode("utf-8")
