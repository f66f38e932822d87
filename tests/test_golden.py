"""Fresh default outputs against the golden files in tests/golden.

Layout must match exactly: the header, the row and cell counts, key order,
every text cell and the nan and null spellings.  Numbers are compared by
value, within 1e-13 relative.  `optimize.csv`'s alpha_opt and r_opt pass
within 1e-7 relative, since P is flat at the constrained maximum and only
about eight digits of them are determined; `table1.csv`'s one_minus_F also
within 1e-15 absolute, since it is 1 - F and carries F's rounding; Wigner
cells within 1e-14 absolute.  Those absolute floors cover rounding that
depends on numpy's version and SIMD dispatch.  After a deliberate change
of outputs, `tests/golden/regenerate.py` rewrites the files.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RTOL = 1e-13
# (rtol, atol) of the columns that take other tolerances
TOLERANCES = {
    ("optimize.csv", "alpha_opt"): (1e-7, 0.0),
    ("optimize.csv", "r_opt1"): (1e-7, 0.0),
    ("optimize.csv", "r_opt2"): (1e-7, 0.0),
    ("optimize.csv", "r_opt3"): (1e-7, 0.0),
    ("table1.csv", "one_minus_F"): (RTOL, 1e-15),
}


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    return out, regenerate.generate(out)


def assert_close(got, want, where, rtol=RTOL, atol=0.0):
    assert abs(got - want) <= rtol * abs(want) + atol, (where, got, want)


def assert_same_cell(got: str, want: str, where, rtol, atol):
    """A finite number by value, anything else (int, text, blank, nan) verbatim."""
    try:
        value = float(want)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or want.lstrip("-").isdigit():
        assert got == want, where
    else:
        assert_close(float(got), value, where, rtol, atol)


@pytest.mark.parametrize("name", ["table1.csv", "sweep.csv", "optimize.csv"])
def test_csv_matches_golden(fresh, name):
    out, _ = fresh
    with open(out / name, newline="") as fh:
        got = list(csv.reader(fh))
    with open(GOLDEN / name, newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert [len(row) for row in got] == [len(row) for row in want]
    for i, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=1):
        for column, g, w in zip(want[0], got_row, want_row):
            rtol, atol = TOLERANCES.get((name, column), (RTOL, 0.0))
            assert_same_cell(g, w, (name, i, column), rtol, atol)


def assert_same_json(got, want, where):
    """Same structure, key order and types; floats by value."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert_close(got, want, where)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_same_json(got[key], want[key], (*where, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, (*where, i))
    else:
        assert type(got) is type(want) and got == want, where


def test_branches_json_matches_golden(fresh):
    out, _ = fresh
    got = json.loads((out / "branches.json").read_text())
    want = json.loads((GOLDEN / "branches.json").read_text())
    assert_same_json(got, want, ("branches.json",))


@pytest.mark.parametrize("config", list(regenerate.WIGNER_CONFIGS))
def test_wigner_summary_matches_golden(fresh, config):
    _, summaries = fresh
    got = summaries[config]
    want = json.loads((GOLDEN / "wigner.json").read_text())[config]
    assert list(got) == list(want)
    assert got["header"] == want["header"]
    assert got["rows"] == want["rows"]
    for key in ("integral", "mean_x", "mean_p"):
        assert_close(got[key], want[key], (config, key), atol=1e-14)
    assert list(got["cells"]) == list(want["cells"])
    for index, w in want["cells"].items():
        assert_close(got["cells"][index], w, (config, index), rtol=0.0, atol=1e-14)
