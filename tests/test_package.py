"""Package surface: re-exports, and which commands start without numpy."""
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import icpower
from icpower import CooperationNotRationalError

# A fresh interpreter imports the package and the CLI, loads the bundled
# config, runs main(argv) unless argv is null, and prints the exit code and
# whether numpy got imported.
IMPORT_SCRIPT = """
import json, sys
import icpower, icpower.cli as cli
cli.load_config(cli.default_config_path())
argv = json.loads(sys.argv[1])
print(json.dumps([None if argv is None else cli.main(argv), "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("argv, code, loads_numpy", [
    (None, None, False),
    (["ne"], 0, False),
    (["pricing", "--alpha", "0.12"], 0, False),
    (["pricing", "--alpha", "0.15"], 3, False),  # a period-4 cycle
    (["pricing", "--sweep", "0:0.12:5"], 0, False),
    (["pareto", "--n", "20"], 0, True),
    (["finite"], 0, False),
    (["finite", "--scenario", "nfe", "--ce-uniform"], 0, False),
    (["social"], 0, False),
    (["nbs", "--fairness"], 0, False),
    (["repeated"], 0, False),
], ids=["import-and-load-config", "ne", "pricing-0.12", "pricing-0.15", "pricing-sweep",
     "pareto", "finite", "finite-nfe-ce-uniform", "social", "nbs-fairness", "repeated"])
def test_numpy_is_imported_only_by_array_commands(tmp_path, argv, code, loads_numpy):
    if argv is not None:
        argv = ["--quiet", "--out", str(tmp_path), *argv]
    # run the package under test, installed or not
    src = str(Path(icpower.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [code, loads_numpy]


def test_every_export_resolves():
    assert len(set(icpower.__all__)) == len(icpower.__all__)
    star = {}
    exec("from icpower import *", star)
    listed = dir(icpower)
    for name in icpower.__all__:
        assert getattr(icpower, name) is star[name]
        assert name in listed
    for module in ("efficiency", "finite"):
        home = import_module(f"icpower.{module}")
        for name in home.__all__:
            if name in icpower.__all__:
                assert getattr(icpower, name) is getattr(home, name)


@pytest.mark.parametrize("module", ["config", "network", "continuous", "numerics",
                                    "efficiency", "finite", "repeated"])
def test_package_exports_every_module_export(module):
    home = import_module(f"icpower.{module}")
    for name in home.__all__:
        assert name in icpower.__all__
        assert getattr(icpower, name) is getattr(home, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="nonexistent"):
        icpower.nonexistent


@pytest.mark.parametrize("error", [CooperationNotRationalError])
def test_solver_outcomes_stay_value_errors(error):
    assert isinstance(error("no answer"), ValueError)
