"""Package surface: re-exports, which modules start-up imports, and the
value semantics of the record types."""
import copy
import json
import os
import pickle
import subprocess
import sys
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path

import pytest

import icpower
from icpower import (CooperationNotRationalError, DiscountSpec, Elimination, FiniteGame,
                     FiniteGameParams, FiniteScenario, JointDistribution, OutputConfig,
                     PowerProfile, PricingConfig, RunConfig, SearchConfig, SolveReport,
                     TriggerPolicy, UtilityPlane, Weights, utility_grid)
from icpower.network import _Record

from conftest import make_model

# A fresh interpreter imports the package and the CLI, loads the bundled
# config, runs main(argv) unless argv is null, and prints the exit code,
# whether numpy got imported, and the package's modules that got loaded.
IMPORT_SCRIPT = """
import json, sys
import icpower, icpower.cli as cli
cli.load_config(cli.default_config_path())
argv = json.loads(sys.argv[1])
code = None if argv is None else cli.main(argv)
loaded = sorted(m.removeprefix("icpower.") for m in sys.modules if m.startswith("icpower."))
print(json.dumps([code, "numpy" in sys.modules, loaded]))
"""
START_UP = ["cli", "config", "network"]  # what every command loads
SEARCH = ["continuous", "efficiency", "numerics"]  # the frontier's searches


@pytest.mark.parametrize("argv, code, loads_numpy, loads", [
    (None, None, False, []),
    (["ne"], 0, False, ["continuous"]),
    (["pricing", "--alpha", "0.12"], 0, False, ["continuous"]),
    (["pricing", "--alpha", "0.15"], 3, False, ["continuous"]),  # a period-4 cycle
    (["pricing", "--sweep", "0:0.12:5"], 0, False, ["continuous"]),
    (["pareto", "--n", "20"], 0, True, SEARCH),
    (["finite"], 0, False, ["finite"]),
    (["finite", "--scenario", "nfe", "--ce-uniform"], 0, False, ["finite"]),
    (["social"], 0, False, SEARCH),
    (["nbs", "--fairness"], 0, False, SEARCH),
    (["repeated"], 0, False, [*SEARCH, "repeated"]),
], ids=["import-and-load-config", "ne", "pricing-0.12", "pricing-0.15", "pricing-sweep",
     "pareto", "finite", "finite-nfe-ce-uniform", "social", "nbs-fairness", "repeated"])
def test_numpy_is_imported_only_by_array_commands(tmp_path, argv, code, loads_numpy, loads):
    if argv is not None:
        argv = ["--quiet", "--out", str(tmp_path), *argv]
    # run the package under test, installed or not; -S, so that no site hook
    # can import numpy first, with numpy's own directory on the path instead
    src = str(Path(icpower.__file__).parents[1])
    numpy_home = str(Path(find_spec("numpy").origin).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join([src, numpy_home])})
    assert proc.stdout, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [code, loads_numpy,
                                                        sorted(START_UP + loads)]


# the package's public surface: a change to it is a deliberate edit here
PUBLIC = [
    "ConfigError", "CooperationNotRationalError", "DegenerateUtilityError", "DiscountSpec",
    "Elimination", "FiniteGame", "FiniteGameParams", "FiniteScenario", "JointDistribution",
    "NetworkModel", "OutputConfig", "PowerProfile", "PricingConfig", "RunConfig",
    "SearchConfig", "SolveReport", "SolverOutcomeError", "TriggerPolicy", "UtilityPlane",
    "UtilityPoint", "Weights", "__version__", "bargaining_points", "best_response_ee",
    "best_response_priced", "br_dynamics", "build_ic_game", "build_nfe_game",
    "config_from_dict", "default_config_path", "deviation_payoff", "discounted_utility",
    "distance_to_frontier", "ee_utility", "effective_gain", "fairness_projection",
    "gamma_star", "grid_csv_rows", "illinois_root", "in_improvement_region",
    "is_correlated_equilibrium", "iterated_dominance", "load_config", "min_discount",
    "nash_bargaining", "nash_equilibrium", "packet_throughput", "pareto_frontier",
    "priced_responder", "priced_utility", "pure_nash", "simulate_trigger", "sinr",
    "social_optimum", "trace_csv_rows", "trigger_csv_rows", "utility_grid", "utility_point",
]


def test_public_surface_is_pinned():
    assert icpower.__all__ == PUBLIC


@pytest.mark.parametrize("name, loads", [
    ("NetworkModel", ["network"]),
    ("load_config", ["config", "network"]),
])
def test_a_name_loads_only_its_module_and_what_it_imports(name, loads):
    # -S, so that no site hook can import a package module first
    code = (f"import sys, icpower; icpower.{name}; "
            "print(sorted(m for m in sys.modules if m.startswith('icpower.')))")
    src = str(Path(icpower.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == f"{[f'icpower.{m}' for m in loads]}\n", proc.stderr


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


def test_start_up_imports_neither_dataclasses_nor_resources():
    # -S, so that no site hook can import these first and mask the check
    code = ("import sys, icpower, icpower.cli as c; c.load_config(c.default_config_path()); "
            "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))")
    src = str(Path(icpower.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "[]\n", proc.stderr


def _report():
    return SolveReport(PowerProfile((1.0, 2.0)), (0.5, 0.25), (0.5, 0.25), (2.0, 3.0), 1,
                       ((0.0, 0.0), (1.0, 2.0)), True, 0.0, 1e-10, "converged")


def _game():
    return FiniteGame(strategies=((0.0, 1.0), (0.0, 1.0)),
                      payoffs=[[(0, 0), (0, 1)], [(1, 0), (0.5, 0.5)]])


# one fresh instance per call of each record type
RECORDS = {
    "NetworkModel": make_model,
    "PowerProfile": lambda: PowerProfile((1.0, 2.0)),
    "Weights": lambda: Weights((0.25, 0.75)),
    "SearchConfig": SearchConfig,
    "OutputConfig": OutputConfig,
    "FiniteScenario": lambda: FiniteScenario("ic", FiniteGameParams(), h=1.0),
    "RunConfig": lambda: RunConfig(make_model(), pricing=PricingConfig(0.12)),
    "PricingConfig": lambda: PricingConfig(0.12),
    "SolveReport": _report,
    "UtilityPlane": lambda: utility_grid(make_model(), 3),
    "FiniteGameParams": FiniteGameParams,
    "FiniteGame": _game,
    "JointDistribution": lambda: JointDistribution.uniform_over((2, 2), [(0, 1)]),
    "Elimination": lambda: Elimination(1, 0, 0.0, 1.0),
    "TriggerPolicy": lambda: TriggerPolicy(PowerProfile((1.0, 1.0)), PowerProfile((2.0, 2.0))),
    "DiscountSpec": lambda: DiscountSpec(0.5),
}


def test_every_record_type_is_covered():
    assert {cls.__name__ for cls in _Record.__subclasses__()} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_value_semantics(name):
    a, b = RECORDS[name](), RECORDS[name]()
    cls = type(a)
    assert cls.__name__ == name
    values = tuple(getattr(a, field) for field in cls.__slots__)
    twin = type("Twin", (cls,), {})(*values)  # the same fields, another type
    assert a == a and a != twin and twin != a and a != values
    if cls is UtilityPlane:  # arrays have no single truth value: compared by identity
        assert a != b and hash(a) != hash(b)
    else:
        assert a == b and hash(a) == hash(b) == hash(values)
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for field in (cls.__slots__[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert tuple(getattr(a, field) for field in cls.__slots__) == values


# pickles of two config sections from when they lived in the solver modules
# that use them, at protocols 0 and 4
OLD_PICKLES = {
    "PricingConfig": (
        PricingConfig(0.12),
        b"cicpower.continuous\nPricingConfig\np0\n(F0.12\ntp1\nRp2\n.",
        b"\x80\x04\x955\x00\x00\x00\x00\x00\x00\x00\x8c\x12icpower.continuous\x94\x8c\r"
        b"PricingConfig\x94\x93\x94G?\xbe\xb8Q\xeb\x85\x1e\xb8\x85\x94R\x94."),
    "FiniteGameParams": (
        FiniteGameParams(1.0, 0.01, 4.0),
        b"cicpower.finite\nFiniteGameParams\np0\n(F1.0\nF0.01\nF4.0\ntp1\nRp2\n.",
        b"\x80\x04\x95F\x00\x00\x00\x00\x00\x00\x00\x8c\x0eicpower.finite\x94\x8c\x10"
        b"FiniteGameParams\x94\x93\x94G?\xf0\x00\x00\x00\x00\x00\x00G?\x84z\xe1G\xae\x14{"
        b"G@\x10\x00\x00\x00\x00\x00\x00\x87\x94R\x94."),
}


@pytest.mark.parametrize("name", OLD_PICKLES)
def test_old_pickles_still_load(name):
    record, *old = OLD_PICKLES[name]
    assert type(record).__module__ == "icpower.config"
    for data in old:
        assert pickle.loads(data) == record


def test_records_are_no_tuples():
    assert PowerProfile((0.5, 0.5)) != Weights((0.5, 0.5))
    assert PowerProfile((0.5, 0.5)) != ((0.5, 0.5),)
    with pytest.raises(TypeError):
        len(make_model())


@pytest.mark.parametrize("record, text", [
    (make_model(), "NetworkModel(gains=((0.75, 0.5), (0.25, 1.0)), noise_power=1.0, "
                   "processing_gain=4.0, power_cap=5.0, packet_bits=20, rate_scale=1.0)"),
    (_report(), "SolveReport(solution=PowerProfile(powers=(1.0, 2.0)), utilities=(0.5, 0.25), "
                "normalized_utilities=(0.5, 0.25), sinrs=(2.0, 3.0), iterations=1, "
                "trace=((0.0, 0.0), (1.0, 2.0)), converged=True, residual=0.0, "
                "tolerance=1e-10, termination='converged', period=None)"),
    (_game(), "FiniteGame(strategies=((0.0, 1.0), (0.0, 1.0)), "
              "payoffs=(((0.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.5, 0.5))))"),
], ids=["NetworkModel", "SolveReport", "FiniteGame"])
def test_record_repr(record, text):
    assert repr(record) == text
