"""fileio.write_csv: the one writer of rirlab's CSV files, and its rule for
how a cell becomes text."""

import math

import numpy as np

from rirlab.fileio import write_csv


def test_cells_are_written_as_the_reports_always_wrote_them(tmp_path):
    # Each float cell, numpy or not, is repr(float(v)); any other is str(v).
    cells = {
        0.1: "0.1",
        np.float32(0.1): "0.10000000149011612",
        np.float64(1e-3): "0.001",
        -0.0: "-0.0",
        math.nan: "nan",
        math.inf: "inf",
        np.float32(-np.inf): "-inf",
        7: "7",
        "ex_00003_reverb.wav": "ex_00003_reverb.wav",
    }
    path = tmp_path / "t.csv"
    write_csv(path, ("cell",), ([v] for v in cells))
    assert path.read_bytes() == ("cell\n" + "".join(f"{t}\n" for t in cells.values())).encode()
    for value, text in cells.items():
        if isinstance(value, (float, np.floating)):
            back = float(text)
            assert back == value or (math.isnan(back) and math.isnan(value))
            assert math.copysign(1.0, back) == math.copysign(1.0, value)


def test_comment_header_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 2.5), ("summary", np.float64(3))], comment="note: x")
    assert path.read_bytes() == b"# note: x\na,b\n1,2.5\nsummary,3.0\n"
    write_csv(path, ["a", "b"], [])
    assert path.read_bytes() == b"a,b\n"
