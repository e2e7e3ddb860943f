import numpy as np

from dkpc._csvio import read_csv, write_csv


def test_cells_written_in_the_artifact_number_format(tmp_path):
    floats = [np.float64(0.1), 2.5, -0.0, 1e-05, 1e16]
    path = tmp_path / "cells.csv"
    write_csv(path, ["c"] * 9, [floats + [np.bool_(True), False, np.int64(7), "ok"]])
    line = path.read_text().splitlines()[1]
    assert line == "0.1,2.5,-0.0,1e-05,1e+16,1,0,7,ok"
    # every float cell is repr(float(v)) and reads back to the same double
    _, rows = read_csv(path)
    for text, v in zip(rows[0], floats):
        assert text == repr(float(v)) and np.float64(text).tobytes() == np.float64(v).tobytes()
