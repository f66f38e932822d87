"""Rewrite the golden outputs that tests/test_golden.py holds fresh runs to.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

The four small data files are `nlamp table1`, `branches`, `sweep` and
`optimize` on their defaults, verbatim.  A Wigner CSV is megabytes, so
wigner.json holds a summary of each config in WIGNER_CONFIGS instead: the
header, the row count, ∬W, ⟨x⟩ and ⟨p⟩, and CELLS W values at seeded
positions.  A golden file is the referee of every change that keeps the
outputs; a change that rewrites one records the largest difference in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from nlamp import WignerGrid, import_grid, integrate
from nlamp.cli import main

HERE = Path(__file__).resolve().parent

# subcommand -> the file it writes on its defaults
DATA_FILES = {
    "table1": "table1.csv",
    "branches": "branches.json",
    "sweep": "sweep.csv",
    "optimize": "optimize.csv",
}

# the success branch on the defaults, on a small off-centre grid, and at
# |alpha| = 13.8, whose Fock output has 996 levels; `nlamp wigner` draws
# each from its closed form, with no truncation
WIGNER_CONFIGS = {
    "defaults": [],
    "small-grid": ["--alpha", "1.2", "--r", "0.3", "--grid=-5,5,-4,4,101,81"],
    "dim-996": ["--alpha", "13.8", "--r", "0.1"],
}
CELLS = 1000


def run(argv: list[str], out: Path) -> None:
    """`nlamp argv --out out` in process; anything but exit 0 is an error."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"nlamp {' '.join(argv)} exited {code}")


def wigner_summary(path: Path) -> dict:
    """Header, row count, ∬W, ⟨x⟩, ⟨p⟩ and CELLS seeded W cells of a grid CSV."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii")
        rows = sum(1 for _ in fh)
    grid = import_grid(path)
    x, p = grid.spec.axes()
    values = grid.values.ravel()
    cells = np.sort(np.random.default_rng(CELLS).choice(values.size, CELLS, replace=False))
    return {
        "header": header,
        "rows": rows,
        "integral": integrate(grid),
        "mean_x": integrate(WignerGrid(grid.spec, x[:, None] * grid.values)),
        "mean_p": integrate(WignerGrid(grid.spec, grid.values * p)),
        "cells": {str(i): values[i].item() for i in cells.tolist()},
    }


def generate(out: Path) -> dict:
    """Write the four data files into out; the Wigner summaries by config name."""
    for command in DATA_FILES:
        run([command], out)
    summaries = {}
    for name, argv in WIGNER_CONFIGS.items():
        run(["wigner", *argv], out / name)
        summaries[name] = wigner_summary(out / name / "wigner_branch1.csv")
    return summaries


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        summaries = generate(out)
        for name in DATA_FILES.values():
            shutil.copyfile(out / name, HERE / name)
    with open(HERE / "wigner.json", "w", newline="") as fh:
        fh.write(json.dumps(summaries, indent=1) + "\n")
    for name in [*DATA_FILES.values(), "wigner.json"]:
        print(HERE / name)


if __name__ == "__main__":
    regenerate()
