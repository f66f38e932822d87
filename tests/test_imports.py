"""Which subcommands import scipy: only the optimizer needs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlamp

# Run in a fresh interpreter, since this test session has imported scipy
# already.  Prints the scipy modules loaded after the non-optimizer
# subcommands, then after one maximization.
SCRIPT = """
import json, sys
import nlamp, nlamp.cli
from nlamp.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
codes = [main([command, "--out", out]) for command in ("table1", "branches", "sweep", "wigner")]
before = scipy_modules()
nlamp.maximize(nlamp.OptProblem(g_eff0=1.4))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    # the child imports the same nlamp as this session
    src = str(Path(nlamp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path_factory.mktemp("out")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_simulator_subcommands_load_no_scipy(loaded):
    assert loaded["codes"] == [0, 0, 0, 0]
    assert loaded["before"] == []


def test_maximize_loads_scipy_optimize(loaded):
    assert "scipy.optimize" in loaded["after"]
