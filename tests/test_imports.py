"""Which modules the subcommands load: never scipy, and the CSV reader only for import_grid."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlamp

# Run in a fresh interpreter, since this test session has imported scipy
# and the CSV reader already.  Prints whether the reader was loaded after
# `import nlamp` and after the table1, branches and sweep subcommands, and
# the scipy modules loaded after the non-optimizer subcommands, then after
# one maximization and the optimize subcommand.
SCRIPT = """
import json, sys
import nlamp, nlamp.cli
from nlamp.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
reader = ["nlamp._parse" in sys.modules]
codes = [main([command, "--out", out]) for command in ("table1", "branches", "sweep")]
reader.append("nlamp._parse" in sys.modules)
codes.append(main(["wigner", "--out", out]))
before = scipy_modules()
nlamp.maximize(nlamp.OptProblem(g_eff0=1.4))
codes.append(main(["optimize", "--out", out]))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules(), "reader": reader}))
"""


# Every subcommand on its defaults in a fresh interpreter where any scipy
# import fails, as in an install without the test extra.
BLOCKED = """
import json, sys
sys.modules["scipy"] = None
from nlamp.cli import main

out = sys.argv[1]
commands = ("table1", "branches", "sweep", "wigner", "optimize")
print(json.dumps([main([command, "--out", out]) for command in commands]))
"""


def run_fresh(script, out):
    # the child imports the same nlamp as this session
    src = str(Path(nlamp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    return run_fresh(SCRIPT, tmp_path_factory.mktemp("out"))


def test_simulator_subcommands_load_no_scipy(loaded):
    assert loaded["codes"] == [0, 0, 0, 0, 0]
    assert loaded["before"] == []


def test_maximize_loads_no_scipy(loaded):
    assert loaded["after"] == []


def test_every_subcommand_runs_with_scipy_import_blocked(tmp_path):
    assert run_fresh(BLOCKED, tmp_path) == [0, 0, 0, 0, 0]


def test_import_and_table_subcommands_load_no_csv_reader(loaded):
    # import_grid loads nlamp._parse on its first call
    assert loaded["reader"] == [False, False]
