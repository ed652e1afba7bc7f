"""CLI: console output, artifacts, exit codes, determinism."""
import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import icpower.cli
import icpower.continuous
import icpower.efficiency
from icpower import (FiniteGame, SolveReport, best_response_ee, config_from_dict,
                     default_config_path, load_config)
from icpower.cli import main

from test_efficiency import brute_frontier, reference_grid


GOLDENS = json.loads((Path(__file__).parent / "search_goldens.json").read_text(
    encoding="utf-8"))


def run(tmp_path, *argv, config=None):
    """Invoke the CLI in-process with artifacts under tmp_path."""
    args = ["--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = ["--config", str(path)] + args
    return main(args + list(argv))


def read_json(tmp_path, name):
    return json.loads((tmp_path / "out" / f"{name}.json").read_text())


def bargaining_gains(artifact):
    """Each gain of nbs.json's points over its disagreement point."""
    d = artifact["disagreement"]["utilities"]
    return [u - v for key in ("solution", "fairness") if key in artifact
            for u, v in zip(artifact[key]["utilities"], d)]


def read_csv(tmp_path, name):
    with (tmp_path / "out" / f"{name}.csv").open() as fh:
        return list(csv.reader(fh))


def reference_pareto(model, n):
    """pareto.csv and pareto.json text written point by point with
    csv.writer and json.dumps(indent=2)."""
    points = reference_grid(model, n)
    frontier = brute_frontier(points)
    marked = {f.profile.powers for f in frontier}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["s1", "s2", "u1", "u2", "u1_norm", "u2_norm", "on_frontier"])
    for pt in points:
        writer.writerow([*pt.profile.powers, *pt.utilities, *pt.normalized,
                         int(pt.profile.powers in marked)])
    artifact = {"n_per_axis": n,
                "frontier": [{"profile": list(pt.profile.powers),
                              "utilities": list(pt.utilities),
                              "normalized": list(pt.normalized)}
                             for pt in frontier]}
    return buf.getvalue(), json.dumps(artifact, indent=2) + "\n"


@pytest.fixture()
def small_config():
    cfg = json.loads(default_config_path().read_text())
    cfg["search"]["n_per_axis"] = 80
    return cfg


class TestNe:
    def test_console_summary(self, tmp_path, capsys):
        assert run(tmp_path, "ne") == 0
        out = capsys.readouterr().out
        assert "s*/σ² = [2.99, 1.97]" in out
        assert "σ²u/t = [0.269, 0.407]" in out

    def test_artifacts_round_trip(self, tmp_path):
        run(tmp_path, "--quiet", "ne")
        report = SolveReport.from_dict(read_json(tmp_path, "ne"))
        assert report.converged
        rows = read_csv(tmp_path, "ne")
        assert rows[0] == ["iter", "s_1", "s_2", "u_1", "u_2",
                           "gamma_1", "gamma_2"]
        assert len(rows) == report.iterations + 2  # header + trace

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "ne") == 0
        assert capsys.readouterr().out == ""

    def test_json_flag_prints_artifact(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "--json", "ne") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True

    def test_deterministic_artifacts(self, tmp_path):
        run(tmp_path, "--quiet", "ne")
        first_json = (tmp_path / "out" / "ne.json").read_bytes()
        first_csv = (tmp_path / "out" / "ne.csv").read_bytes()
        run(tmp_path, "--quiet", "ne")
        assert (tmp_path / "out" / "ne.json").read_bytes() == first_json
        assert (tmp_path / "out" / "ne.csv").read_bytes() == first_csv


class TestFinite:
    def test_nfe_output(self, tmp_path, capsys):
        assert run(tmp_path, "finite", "--scenario", "nfe") == 0
        out = capsys.readouterr().out
        assert "pure NE: [0.00, 4.00]" in out
        assert "drops s=0.00" in out
        artifact = read_json(tmp_path, "finite")
        assert artifact["pure_nash"] == [[0.0, 4.0]]
        assert artifact["reduced_strategies"] == [[0.0], [4.0]]
        # artifact rebuilds into a valid game
        game = FiniteGame(strategies=tuple(tuple(r) for r in artifact["strategies"]),
                          payoffs=artifact["payoffs"])
        assert len(game.strategies) == 2

    @pytest.mark.parametrize("scenario, artifact", [
        ("nfe", {"scenario": "nfe", "strategies": [[0.0, 4.0], [0.0, 4.0]],
                 "payoffs": [[[0.0, 0.0], [0.0, 0.99]], [[0.99, 0.0], [-0.01, 0.99]]],
                 "eliminations": [
                     {"round": 1, "player": 1, "strategy": 0.0, "dominator": 4.0},
                     {"round": 2, "player": 0, "strategy": 4.0, "dominator": 0.0}],
                 "reduced_strategies": [[0.0], [4.0]],
                 "pure_nash": [[0.0, 4.0]],
                 "correlated": {"checked": True, "holds": True, "worst_slack": 0.0,
                                "distribution": [[0.0, 1.0], [0.0, 0.0]]}}),
        ("ic", {"scenario": "ic", "strategies": [[0.0, 1.0], [0.0, 1.0]],
                "payoffs": [[[0.0, 0.0], [0.0, 0.99]], [[0.99, 0.0], [-0.01, -0.01]]],
                "eliminations": [],
                "reduced_strategies": [[0.0, 1.0], [0.0, 1.0]],
                "pure_nash": [[0.0, 1.0], [1.0, 0.0]],
                "correlated": {"checked": True, "holds": True, "worst_slack": 0.005,
                               "distribution": [[0.0, 0.5], [0.5, 0.0]]}}),
    ], ids=["nfe", "ic"])
    def test_bundled_artifact_pinned(self, tmp_path, scenario, artifact):
        # every byte of finite.json for the bundled config, floats exact
        assert run(tmp_path, "--quiet", "finite", "--scenario", scenario, "--ce-uniform") == 0
        text = (tmp_path / "out" / "finite.json").read_text(encoding="utf-8")
        assert text == json.dumps(artifact, indent=2) + "\n"

    def test_ic_output_includes_ce(self, tmp_path, capsys):
        assert run(tmp_path, "finite", "--scenario", "ic") == 0
        out = capsys.readouterr().out
        assert "pure NE: [0.00, 1.00]" in out and "pure NE: [1.00, 0.00]" in out
        assert "correlated equilibrium holds" in out
        artifact = read_json(tmp_path, "finite")
        assert artifact["correlated"]["holds"] is True
        assert artifact["correlated"]["worst_slack"] >= 0.0

    def test_missing_section_is_validation_error(self, tmp_path, small_config,
                                                 capsys):
        del small_config["finite"]
        assert run(tmp_path, "finite", config=small_config) == 2
        assert "finite" in capsys.readouterr().err

    def test_nfe_assumption_violation_exit_code(self, tmp_path, small_config,
                                                capsys):
        small_config["finite"]["gains"] = {"h1": 0.9, "h2": 1.0}
        assert run(tmp_path, "finite", "--scenario", "nfe",
                   config=small_config) == 2
        assert "near-far assumption" in capsys.readouterr().err

    def test_ic_without_h_exit_code(self, tmp_path, small_config, capsys):
        small_config["finite"]["gains"] = {"h1": 0.25, "h2": 1.0}
        assert run(tmp_path, "finite", "--scenario", "ic", config=small_config) == 2
        assert capsys.readouterr().err == "error: finite.gains: scenario 'ic' needs h\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, gains, threshold, level", [
        ("ic", {"h": 1e-320}, 4.0, "inf"),
        ("ic", {"h": 1e30}, 1e-300, "0.0"),
        ("nfe", {"h1": 1e-320, "h2": 1.0}, 4.0, "inf"),
        ("nfe", {"h1": 1e30, "h2": 1e31}, 1e-300, "0.0"),
    ], ids=["ic-overflows", "ic-underflows", "nfe-overflows", "nfe-underflows"])
    def test_power_level_names_the_gain_that_sets_it(self, tmp_path, small_config, capsys,
                                                     scenario, gains, threshold, level):
        # the level is noise_power * sinr_threshold / (gain * processing_gain)
        small_config["finite"]["gains"] = gains
        small_config["finite"]["sinr_threshold"] = threshold
        assert run(tmp_path, "finite", "--scenario", scenario, config=small_config) == 2
        key = "h" if scenario == "ic" else "h1"
        assert capsys.readouterr().err == (f"error: finite.gains.{key}: sets the on/off "
                                           f"power level to {level}, which must be a "
                                           f"finite number > 0\n")
        assert not (tmp_path / "out").exists()

    def test_non_numeric_gain_exit_code(self, tmp_path, small_config, capsys):
        small_config["finite"]["gains"]["h"] = "x"
        assert run(tmp_path, "finite", config=small_config) == 2
        err = capsys.readouterr().err
        assert "finite.gains.h" in err and "Traceback" not in err


class TestPricing:
    def test_console_summary(self, tmp_path, capsys):
        assert run(tmp_path, "pricing") == 0
        out = capsys.readouterr().out
        assert "s̃*/σ² = [2.17, 1.57]" in out

    def test_zero_alpha_matches_ne(self, tmp_path):
        run(tmp_path, "--quiet", "ne")
        run(tmp_path, "--quiet", "pricing", "--alpha", "0")
        ne = read_json(tmp_path, "ne")
        priced = read_json(tmp_path, "pricing")
        for a, b in zip(ne["solution"], priced["solution"]):
            assert abs(a - b) <= 1e-5

    @pytest.mark.parametrize("gains", [[[1e-9, 0.5], [1.0, 1.0]], [[1e-12, 0.5], [0.25, 1.0]]],
                             ids=["cycled", "silenced"])
    def test_zero_alpha_equals_ne_on_a_faint_link(self, tmp_path, gains):
        # player 1's throughput at the cap underflows to 0, yet its unpriced
        # response is the cap: pricing at alpha = 0 must neither cycle nor
        # silence it
        cfg = json.loads(default_config_path().read_text())
        cfg["network"].update(gains=gains, packet_bits=40)
        assert run(tmp_path, "--quiet", "ne", config=cfg) == 0
        ne = read_json(tmp_path, "ne")
        assert run(tmp_path, "--quiet", "pricing", "--alpha", "0", config=cfg) == 0
        priced = read_json(tmp_path, "pricing")
        assert priced.pop("alpha") == 0.0 and priced == ne
        assert run(tmp_path, "--quiet", "pricing", "--sweep", "0:0.2:3", config=cfg) == 0
        first = read_json(tmp_path, "pricing_sweep")[0]
        assert first.pop("alpha") == 0.0 and first == ne

    def test_sweep_artifact_rows(self, tmp_path):
        assert run(tmp_path, "--quiet", "pricing", "--sweep", "0:0.12:5") == 0
        rows = read_csv(tmp_path, "pricing_sweep")
        assert rows[0] == ["alpha", "s_1", "s_2", "u_1", "u_2", "u1_norm", "u2_norm",
                           "iterations", "converged"]
        assert len(rows) == 6
        assert [float(r[0]) for r in rows[1:]] == pytest.approx(
            [0.0, 0.03, 0.06, 0.09, 0.12])
        assert all(r[-1] == "1" for r in rows[1:])

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e6),
           st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(0.0, 1e6)),
           st.integers(1, 500))
    @example(0.0, 5e-324, 500)  # a subnormal span: the step underflows to 0
    @example(0.0, 1e-320, 4)
    @example(-0.0, 0.1, 1)
    @example(0.25, 0.0, 7)
    def test_sweep_levels_are_numpy_linspace(self, lo, span, steps):
        hi = lo + span
        levels = icpower.cli._parse_sweep(f"{lo!r}:{hi!r}:{steps}")
        expected = np.linspace(lo, hi, steps).tolist()
        assert [v.hex() for v in levels] == [v.hex() for v in expected]

    def test_sweep_with_cycling_level_exits_3_but_writes_rows(self, tmp_path,
                                                              capsys):
        # at alpha = 0.15 a cheap interior peak turns negative against high
        # opponent power, the best response jumps to silence, and the
        # synchronous dynamics orbits a 4-cycle instead of settling
        assert run(tmp_path, "--quiet", "pricing", "--sweep", "0.12:0.15:2") == 3
        assert "alpha = 0.15" in capsys.readouterr().err
        rows = read_csv(tmp_path, "pricing_sweep")
        assert [r[-1] for r in rows[1:]] == ["1", "0"]
        runs = read_json(tmp_path, "pricing_sweep")
        assert runs[1]["converged"] is False

    def test_cycling_level_names_its_period(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "pricing", "--alpha", "0.15") == 3
        assert capsys.readouterr().err == ("error: best-response dynamics did not "
                                           "converge (period-4 cycle after 8 sweeps)\n")
        report = read_json(tmp_path, "pricing")
        assert (report["termination"], report["period"]) == ("cycle", 4)
        assert len(report["trace"]) == 9
        assert len(read_csv(tmp_path, "pricing")) == 10

    def test_sweep_names_the_cause_of_each_failure(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "pricing", "--sweep", "0.12:0.15:4") == 3
        assert capsys.readouterr().err == (
            "error: no convergence at alpha = 0.13 (period-4 cycle after 6 sweeps), "
            "0.14 (period-4 cycle after 6 sweeps), 0.15 (period-4 cycle after 8 "
            "sweeps)\n")

    def test_single_bit_packets_rejected_like_ne(self, tmp_path, small_config,
                                                 capsys):
        # with L = 1 the priced utility's supremum t * mu is approached as
        # s -> 0 but never attained, so there is no best response to report
        small_config["network"]["packet_bits"] = 1
        assert run(tmp_path, "ne", config=small_config) == 2
        ne_err = capsys.readouterr().err
        assert "packet_bits = 1" in ne_err
        assert run(tmp_path, "pricing", config=small_config) == 2
        assert capsys.readouterr().err == ne_err

    @pytest.mark.parametrize("argv", [["ne"], ["pricing"], ["social"], ["nbs"],
                                      ["repeated"]])
    def test_single_bit_packets_name_the_network(self, tmp_path, small_config, capsys,
                                                 argv):
        small_config["network"]["packet_bits"] = 1
        assert run(tmp_path, *argv, config=small_config) == 2
        assert capsys.readouterr().err.startswith("error: network: packet_bits = 1: ")

    def test_dropped_priced_tol_is_an_unknown_key(self, tmp_path, small_config, capsys):
        # the search has no such tolerance, so the key is a config error
        small_config["search"]["priced_tol"] = 1e-7
        assert run(tmp_path, "--quiet", "pricing", config=small_config) == 2
        assert capsys.readouterr().err.startswith(
            "error: search: unknown key(s) priced_tol; allowed: n_per_axis, br_tol, max_iter")
        assert not (tmp_path / "out").exists()

    def test_malformed_sweep_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "pricing", "--sweep", "0-1-5") == 2
        assert "lo:hi:steps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--alpha", "inf"], "--alpha must be finite"),
        (["--sweep", "0:inf:3"], "--sweep bounds must be finite, got '0:inf:3'"),
        (["--sweep", "nan:1:3"], "--sweep bounds must be finite, got 'nan:1:3'"),
        (["--alpha", "-1"], "--alpha must be >= 0"),
        (["--sweep", "0:1:x"], "--sweep expects lo:hi:steps, got '0:1:x'"),
        (["--sweep", "1:0:3"], "--sweep needs 0 <= lo <= hi and steps >= 1"),
        (["--sweep", "0:1"], "--sweep expects lo:hi:steps, got '0:1'"),
        (["--sweep", "0:1:2:3"], "--sweep expects lo:hi:steps, got '0:1:2:3'"),
    ])
    def test_non_finite_surcharge_rejected(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, "--quiet", "pricing", *argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_alpha_required_without_config_section(self, tmp_path, small_config,
                                                   capsys):
        del small_config["pricing"]
        assert run(tmp_path, "pricing", config=small_config) == 2
        assert "--alpha" in capsys.readouterr().err


class TestEfficiencyCommands:
    def test_pareto(self, tmp_path, capsys):
        assert run(tmp_path, "pareto", "--n", "40") == 0
        assert "frontier holds" in capsys.readouterr().out
        artifact = read_json(tmp_path, "pareto")
        assert artifact["n_per_axis"] == 40
        rows = read_csv(tmp_path, "pareto")
        assert rows[0] == ["s1", "s2", "u1", "u2", "u1_norm", "u2_norm",
                           "on_frontier"]
        assert len(rows) == 40 * 40 + 1
        flags = sum(int(r[-1]) for r in rows[1:])
        assert flags == len(artifact["frontier"])

    def test_pareto_deterministic(self, tmp_path):
        run(tmp_path, "--quiet", "pareto", "--n", "25")
        first = (tmp_path / "out" / "pareto.csv").read_bytes()
        run(tmp_path, "--quiet", "pareto", "--n", "25")
        assert (tmp_path / "out" / "pareto.csv").read_bytes() == first

    @pytest.mark.parametrize("n", [13, 25])
    @pytest.mark.parametrize("network", [
        {},
        {"gains": [[1.2, 0.35], [0.15, 0.8]], "noise_power": 0.4,
         "packet_bits": 33, "power_cap": 6.5, "rate_scale": 2.5},
        # sigma^2 / t is exactly 1 with sigma^2 != 1: the u*_norm text is reused
        {"gains": [[1.2, 0.35], [0.15, 0.8]], "noise_power": 2.5,
         "packet_bits": 33, "power_cap": 6.5, "rate_scale": 2.5},
    ], ids=["reference", "scaled", "unit-ratio"])
    def test_pareto_golden(self, tmp_path, network, n):
        cfg = json.loads(default_config_path().read_text())
        cfg["network"].update(network)
        assert run(tmp_path, "--quiet", "pareto", "--n", str(n), config=cfg) == 0
        want_csv, want_json = reference_pareto(
            load_config(tmp_path / "config.json").model, n)
        out = tmp_path / "out"
        assert (out / "pareto.csv").read_bytes() == want_csv.encode("utf-8")
        assert (out / "pareto.json").read_bytes() == want_json.encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.1, 2.0), min_size=2, max_size=2),
           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), st.floats(0.05, 3.0),
           st.one_of(st.none(), st.floats(0.2, 5.0)), st.floats(1.0, 8.0),
           st.floats(0.05, 10.0), st.integers(2, 60), st.integers(2, 30))
    def test_pareto_json_is_json_dumps_of_the_frontier(self, tmp_path_factory, direct, cross,
                                                       noise, rate, w, cap, bits, n):
        # pareto.json is written from pareto.csv's texts; a rate of None makes
        # sigma^2 / t exactly 1, where the u*_norm fields reuse the u* text
        cfg = json.loads(default_config_path().read_text())
        cfg["network"] = {"gains": [[direct[0], cross[0]], [cross[1], direct[1]]],
                          "noise_power": noise, "processing_gain": w, "power_cap": cap,
                          "packet_bits": bits, "rate_scale": noise if rate is None else rate}
        want_csv, want_json = reference_pareto(config_from_dict(cfg).model, n)
        tmp_path = tmp_path_factory.mktemp("pareto")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(tmp_path, "--quiet", "--json", "pareto", "--n", str(n), config=cfg)
        assert code == 0
        out = tmp_path / "out"
        assert (out / "pareto.json").read_bytes() == want_json.encode("utf-8")
        assert (out / "pareto.csv").read_bytes() == want_csv.encode("utf-8")
        assert stdout.getvalue() == want_json

    @pytest.mark.parametrize("network", [{"gains": [[0.75, 0.5], [1e308, 1.0]]},
                                         {"processing_gain": 1e308}],
                             ids=["cross-gain", "processing-gain"])
    def test_pareto_near_the_float_limit_is_silent_and_finite(self, tmp_path, network):
        # an interference term or SINR that overflows takes its limit, with no
        # numpy warning on stderr and no non-finite value in either artifact
        cfg = json.loads(default_config_path().read_text())
        cfg["network"].update(network)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "icpower.cli", "--quiet", "--config", str(path),
             "--out", str(tmp_path / "out"), "pareto", "--n", "40"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(icpower.__file__).parents[1])})
        assert (proc.returncode, proc.stderr) == (0, "")
        for name in ("pareto.json", "pareto.csv"):
            text = (tmp_path / "out" / name).read_text()
            assert not re.search(r"inf|nan|Infinity|NaN", text), name

    def test_pareto_json_spells_an_infinite_utility_as_json_does(self, tmp_path):
        # at packet_bits = 1 the utility of a subnormal power can round past
        # the float range; pareto.json then reads Infinity, as json.dumps writes it
        g, w, noise = 1.513844881093656, 1.8565635837771532, 0.5952851795672228
        cfg = json.loads(default_config_path().read_text())
        cfg["network"] = {"gains": [[g, 0.0], [0.0, g]], "noise_power": noise,
                          "processing_gain": w, "power_cap": 5e-324, "packet_bits": 1,
                          "rate_scale": 3.807583411094452e307}
        assert run(tmp_path, "--quiet", "pareto", "--n", "3", config=cfg) == 0
        text = (tmp_path / "out" / "pareto.json").read_text(encoding="utf-8")
        assert text == reference_pareto(config_from_dict(cfg).model, 3)[1]
        assert "Infinity" in text

    @pytest.mark.parametrize("case", sorted(GOLDENS["runs"]))
    def test_search_goldens(self, tmp_path, capsys, case):
        # the goldens came from a grid search at n = 60: the frontier search
        # must score at least as well, and leave every other field as it was
        network, command = case.split("/")
        cfg = json.loads(default_config_path().read_text())
        cfg["network"].update(GOLDENS["networks"][network])
        want = GOLDENS["runs"][case]
        argv = GOLDENS["commands"][command]
        assert run(tmp_path, "--quiet", *argv, config=cfg) == want["exit"]
        assert capsys.readouterr().err == want["stderr"]
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == sorted(want["files"])
        name = argv[0] + ".json"
        got, old = read_json(tmp_path, argv[0]), json.loads(want["files"][name])
        welfare = lambda w, u: w[0] * u[0] + w[1] * u[1]
        gains = lambda point, d: [u - v for u, v in zip(point["utilities"], d)]
        if argv[0] == "social":
            pairs = [(welfare(got["weights"], got["utilities"]),
                      welfare(old["weights"], old["utilities"]))]
            same = ["weights"]
        elif argv[0] == "nbs":
            d = old["disagreement"]["utilities"]
            pairs = [(math.prod(gains(got["solution"], d)), math.prod(gains(old["solution"], d))),
                     (min(gains(got["fairness"], d)), min(gains(old["fairness"], d)))]
            same = ["disagreement"]
        else:
            w = cfg["weights"]
            pairs = [(welfare(w, got["u_cooperate"]), welfare(w, old["u_cooperate"]))]
            same = ["punish_profile", "u_punish"]
        for key in same:
            assert got[key] == old[key]
        for score, golden in pairs:
            assert score >= golden - 1e-12 * abs(golden)

    def test_social(self, tmp_path, capsys):
        assert run(tmp_path, "social") == 0
        out = capsys.readouterr().out
        assert "š/σ²" in out and "σ²u/t" in out
        artifact = read_json(tmp_path, "social")
        assert artifact["normalized"] == pytest.approx([0.278, 0.446], abs=0.005)

    def test_nbs_with_fairness(self, tmp_path, capsys):
        assert run(tmp_path, "nbs", "--fairness") == 0
        out = capsys.readouterr().out
        assert "ṡ/σ²" in out and "equal-gain point" in out
        artifact = read_json(tmp_path, "nbs")
        assert set(artifact) == {"disagreement", "solution", "fairness"}
        assert artifact["solution"]["normalized"] == pytest.approx(
            [0.288, 0.434], abs=0.005)

    @pytest.mark.parametrize("argv", [["nbs"], ["nbs", "--fairness"]])
    def test_nbs_with_the_equilibrium_on_the_cap(self, tmp_path, argv):
        # the equilibrium is (P, P); a grid search scored it below itself,
        # as the scalar and array utilities differ in the last bit there,
        # and exited 3 saying no sampled profile weakly improves on it
        cfg = json.loads(default_config_path().read_text())
        cfg["network"] = {"gains": [[0.465, 0.915], [1.192, 0.478]], "noise_power": 2.195,
                          "processing_gain": 6.777, "power_cap": 7.404, "packet_bits": 24,
                          "rate_scale": 1.0}
        assert run(tmp_path, "--quiet", *argv, config=cfg) == 0
        artifact = read_json(tmp_path, "nbs")
        assert artifact["disagreement"]["profile"] == [7.404, 7.404]
        assert min(bargaining_gains(artifact)) >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.1, 2.0), min_size=4, max_size=4), st.floats(0.2, 3.0),
           st.floats(1.0, 8.0), st.floats(0.5, 8.0), st.integers(2, 60))
    def test_nbs_answers_at_every_equilibrium_on_the_cap(self, tmp_path_factory, g, noise,
                                                          w, cap, bits):
        cfg = json.loads(default_config_path().read_text())
        cfg["network"] = {"gains": [g[:2], g[2:]], "noise_power": noise,
                          "processing_gain": w, "power_cap": cap, "packet_bits": bits,
                          "rate_scale": 1.0}
        model = config_from_dict(cfg).model
        assume(all(best_response_ee(model, (cap, cap), k) == cap for k in range(2)))
        tmp_path = tmp_path_factory.mktemp("nbs")
        for argv in (["nbs"], ["nbs", "--fairness"]):
            assert run(tmp_path, "--quiet", *argv, config=cfg) == 0
            assert min(bargaining_gains(read_json(tmp_path, "nbs"))) >= 0.0

    def test_dropped_refine_tol_is_an_unknown_key(self, tmp_path, small_config, capsys):
        # the search has no such tolerance, so the key is a config error
        small_config["search"]["refine_tol"] = 1e-3
        assert run(tmp_path, "--quiet", "social", config=small_config) == 2
        assert capsys.readouterr().err.startswith(
            "error: search: unknown key(s) refine_tol; allowed: n_per_axis, br_tol, max_iter")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", [-540, -520, 520, 1000])
    def test_nbs_is_the_same_at_any_power_of_two_rate(self, tmp_path, k):
        # rate_scale = 2**k scales every utility exactly, so only the raw
        # utilities may differ, by 2**k, even where g1 * g2 would overflow
        # or fall subnormal
        artifacts = []
        for scale in (0, k):
            cfg = json.loads(default_config_path().read_text())
            cfg["network"]["rate_scale"] = math.ldexp(1.0, scale)
            assert run(tmp_path, "--quiet", "nbs", "--fairness", config=cfg) == 0
            artifacts.append(read_json(tmp_path, "nbs"))
        for point in artifacts[1].values():
            point["utilities"] = [math.ldexp(u, -k) for u in point["utilities"]]
        assert artifacts[1] == artifacts[0]


class TestRepeated:
    def test_summary_and_artifacts(self, tmp_path, capsys):
        assert run(tmp_path, "repeated", "--deviant", "1",
                   "--delta", "0.9") == 0
        out = capsys.readouterr().out
        assert "δ̲ =" in out and "unprofitable" in out
        artifact = read_json(tmp_path, "repeated")
        assert 0.0 < artifact["min_discount"] < 1.0
        rows = read_csv(tmp_path, "repeated")
        assert rows[0][0] == "stage"
        assert len(rows) == 21  # header + default 20 stages

    def test_bad_deviant_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "repeated",
                   "--deviant", "3") == 2
        assert "--deviant" in capsys.readouterr().err

    def test_delta_out_of_range(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "repeated",
                   "--delta", "1.0") == 2
        assert "--delta" in capsys.readouterr().err

    def test_negative_stages_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "repeated",
                   "--stages", "-3") == 2
        assert "--stages" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_deviation_stage_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "repeated",
                   "--deviate-at", "-2") == 2
        assert "--deviate-at" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDriver:
    def test_bad_config_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "ne"]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json"), "ne"]) == 4

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = json.loads(default_config_path().read_text())
        cfg["weights"] = [0.9, 0.9]
        assert run(tmp_path, "ne", config=cfg) == 2
        assert "weights" in capsys.readouterr().err

    @pytest.mark.parametrize("weights, message", [
        ([0.5, math.inf], "weights[1]: must be finite, got Infinity"),
        ([math.nan, 0.5], "weights[0]: must be finite, got NaN"),
    ], ids=["inf", "nan"])
    def test_non_finite_weight_is_named_before_the_sum(self, tmp_path, capsys, weights,
                                                        message):
        # json writes these as Infinity and NaN, which the config's parser reads back
        cfg = json.loads(default_config_path().read_text())
        cfg["weights"] = weights
        assert run(tmp_path, "--quiet", "social", config=cfg) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value, message", [
        (("weights", 0), "0.5", 'weights[0]: must be a number, got "0.5"'),
        (("network", "gains", 0, 0), "0.75",
         'network.gains[0][0]: must be a number, got "0.75"'),
        (("network", "gains", 1), 0.5, "network.gains[1]: must be an array, got 0.5"),
        (("network", "noise_power"), "1.0", 'network.noise_power: must be a number, got "1.0"'),
        (("network", "power_cap"), None, "network.power_cap: must be a number, got null"),
        (("network", "rate_scale"), [1.0], "network.rate_scale: must be a number, got [1.0]"),
        (("pricing", "alpha"), "0.1", 'pricing.alpha: must be a number, got "0.1"'),
        (("search", "br_tol"), "1e-10", 'search.br_tol: must be a number, got "1e-10"'),
        (("finite", "power_cost"), "0.01", 'finite.power_cost: must be a number, got "0.01"'),
        (("output", "directory"), 5, "output.directory: must be a string, got 5"),
        (("finite", "scenario"), None, "finite.scenario: must be a string, got null"),
    ], ids=["weight", "gain", "gains-row", "noise-power", "power-cap-null", "rate-scale-array",
            "alpha", "br-tol", "power-cost", "directory", "scenario-null"])
    def test_wrong_json_type_names_the_field(self, tmp_path, capsys, monkeypatch, path,
                                              value, message):
        # without --out, so that the output directory is read from the config
        cfg = json.loads(default_config_path().read_text())
        *parents, key = path
        section = cfg
        for name in parents:
            section = section[name]
        section[key] = value
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", "config.json", "--quiet", "ne"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("command", ["pareto", "social", "nbs", "repeated"])
    def test_zero_grid_size_rejected(self, tmp_path, capsys, command):
        # only pareto samples a grid; the searches take no --n at all
        try:
            code = run(tmp_path, "--quiet", command, "--n", "0")
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code == 2
        assert ("error: --n: n_per_axis must be >= 2" if command == "pareto"
                else "error: unrecognized arguments: --n 0") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", ["0.1", "nan"])
    def test_alpha_and_sweep_are_exclusive(self, tmp_path, capsys, alpha):
        # a sweep sets every surcharge level, so an --alpha beside it is an
        # error, never silently ignored
        try:
            code = run(tmp_path, "--quiet", "pricing", "--alpha", alpha, "--sweep", "0:0.1:3")
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code == 2
        assert ("argument --sweep: not allowed with argument --alpha"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", ["0", "5"])
    def test_player_count_is_checked_before_the_grid_size(self, tmp_path, capsys, n):
        # the network model is rejected as the config loads, before --n is read
        cfg = json.loads(default_config_path().read_text())
        cfg["network"]["gains"] = [[0.75, 0.5, 0.2], [0.25, 1.0, 0.2], [0.1, 0.2, 0.9]]
        cfg["weights"] = [0.5, 0.25, 0.25]
        assert run(tmp_path, "--quiet", "pareto", "--n", n, config=cfg) == 2
        assert capsys.readouterr().err == ("error: network: gains: need exactly 2 "
                                           "players, got 3\n")

    @pytest.mark.parametrize("command", ["social", "nbs", "repeated"])
    def test_searches_check_the_player_count_before_the_dynamics(self, tmp_path, capsys,
                                                                 command):
        cfg = json.loads(default_config_path().read_text())
        cfg["network"]["gains"] = [[0.75, 0.5, 0.2], [0.25, 1.0, 0.2], [0.1, 0.2, 0.9]]
        cfg["weights"] = [0.5, 0.25, 0.25]
        assert run(tmp_path, "--quiet", command, config=cfg) == 2
        assert capsys.readouterr().err == ("error: network: gains: need exactly 2 "
                                           "players, got 3\n")

    @pytest.mark.parametrize("argv", [["ne"], ["pricing", "--alpha", "0.12"],
                                      ["pricing", "--sweep", "0:0.1:3"], ["finite"]],
                             ids=["ne", "pricing", "pricing-sweep", "finite"])
    def test_every_command_needs_two_players(self, tmp_path, capsys, argv):
        cfg = json.loads(default_config_path().read_text())
        cfg["network"]["gains"] = [[0.75, 0.5, 0.2], [0.25, 1.0, 0.2], [0.1, 0.2, 0.9]]
        assert run(tmp_path, "--quiet", *argv, config=cfg) == 2
        assert capsys.readouterr().err.startswith("error: network: gains: ")
        assert not (tmp_path / "out").exists()

    THREE_PLAYERS = [[0.75, 0.5, 0.2], [0.25, 1.0, 0.2], [0.1, 0.2, 0.9]]
    COMMANDS = (["ne"], ["pricing"], ["pareto", "--n", "5"], ["social"], ["nbs"],
                ["repeated"], ["finite"])

    @pytest.mark.parametrize("edits, commands", [
        ({"finite.gains.h1": 0.9}, [["finite", "--scenario", "nfe"]]),  # near-far
        ({"finite.gains.h": 1e-320}, [["finite"]]),
        ({"finite": None}, [["finite"]]),
        ({"weights": [0.5, 0.25, 0.25]}, COMMANDS),
        ({"weights": [0.5, 0.4]}, COMMANDS),
        ({"network.gains": THREE_PLAYERS, "weights": [0.5, 0.25, 0.25]},
         [["pareto", "--n", "5"], ["social"], ["nbs"], ["repeated"]]),
        ({"network.gains": [[0.75, 0.5], [0.25]]}, COMMANDS),
        ({"network.packet_bits": 1}, [["ne"], ["pricing"], ["social"], ["nbs"]]),
        ({"network.noise_power": 1e-10, "network.rate_scale": 1e300}, COMMANDS),
        ({"pricing": None}, [["pricing"]]),
        ({"pricing.alpha": -0.1}, COMMANDS),
        ({"search.n_per_axis": 1}, COMMANDS),
        ({"search.max_iter": 0}, COMMANDS),
        ({"output.directory": ""}, COMMANDS),
    ], ids=["near-far", "tiny-h", "no-finite", "three-weights", "weights-sum",
            "three-players", "ragged-gains", "one-bit", "utility-overflows", "no-pricing",
            "negative-alpha", "one-point-axis", "no-sweeps", "empty-output"])
    def test_every_exit_2_opens_with_a_field_path(self, tmp_path, capsys, edits,
                                                  commands):
        cfg = json.loads(default_config_path().read_text())
        for path, value in edits.items():
            *parents, key = path.split(".")
            section = cfg
            for name in parents:
                section = section[name]
            if value is None:
                del section[key]
            else:
                section[key] = value
        for argv in commands:
            assert run(tmp_path, "--quiet", *argv, config=cfg) == 2, argv
            err = capsys.readouterr().err
            assert re.match(r"error: (network|finite|pricing|weights|search|output)[.:]",
                            err), (argv, err)

    @pytest.mark.parametrize("argv, source", [(["--n", "20000"], "--n: the utility "
                                               "plane at n = 20000"),
                                              ([], "search.n_per_axis: the utility "
                                                   "plane at n = 80")])
    def test_plane_out_of_memory_names_the_size(self, tmp_path, small_config, capsys,
                                                 monkeypatch, argv, source):
        # a real plane this large may be granted under overcommit and then
        # draw the OOM killer when touched, so the allocation failure is faked
        def too_large(model, n_per_axis=400):
            raise MemoryError

        monkeypatch.setattr(icpower.efficiency, "utility_grid", too_large)
        assert run(tmp_path, "--quiet", "pareto", *argv, config=small_config) == 2
        assert capsys.readouterr().err == f"error: {source} does not fit in memory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ne"])
    def test_unconverged_dynamics_exit_3_with_the_cause(self, tmp_path, small_config,
                                                        capsys, command):
        small_config["search"]["max_iter"] = 1
        assert run(tmp_path, "--quiet", command, config=small_config) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: best-response dynamics did not converge (residual ")
        assert err.endswith(" > tol 1.0e-10 after 1 sweeps)\n")

    def test_max_iter_with_the_residual_within_tol_exits_3(self, tmp_path, small_config,
                                                           capsys):
        # sweep 32 leaves the residual within tol, the last step not
        small_config["search"]["max_iter"] = 32
        assert run(tmp_path, "--quiet", "ne", config=small_config) == 3
        assert capsys.readouterr().err == ("error: best-response dynamics did not "
                                           "converge (last step 1.266e-10 > tol "
                                           "1.0e-10 after 32 sweeps)\n")
        assert read_json(tmp_path, "ne")["termination"] == "max_iter"

    @pytest.mark.parametrize("gains, argv, message", [
        ([[0.55, 0.56], [0.26, 1.5]], ["repeated", "--deviant", "1"],
         "player 1: cooperation utility 0.0 does not beat punishment utility 0.213"),
        # a narrow improvement region, which a 60-point grid missed: nbs
        # exited 3, saying no sampled profile weakly improves on the NE
        ([[1.04, 0.12], [0.21, 0.94]], ["nbs"], None),
    ], ids=["cooperation-not-rational", "empty-improvement-region"])
    def test_solver_outcome_on_valid_config_exits_3(self, tmp_path, capsys, gains,
                                                    argv, message):
        cfg = json.loads(default_config_path().read_text())
        cfg["network"]["gains"] = gains
        code = run(tmp_path, "--quiet", *argv, config=cfg)
        if message is None:
            assert code == 0
            assert min(bargaining_gains(read_json(tmp_path, "nbs"))) >= 0.0
            return
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["repeated", "--deviant", "3"], "--deviant"),
        (["repeated", "--stages", "-1"], "--stages"),
        (["repeated", "--deviate-at", "-1"], "--deviate-at"),
        (["repeated", "--delta", "2"], "--delta"),
    ])
    def test_flags_checked_before_the_dynamics(self, tmp_path, capsys, argv, flag):
        # on this network repeated exits 3 once the equilibrium is solved
        # (cooperation is not rational), so exit 2 shows the flags came first
        cfg = json.loads(default_config_path().read_text())
        cfg["network"]["gains"] = [[0.55, 0.56], [0.26, 1.5]]
        assert run(tmp_path, "--quiet", "repeated", config=cfg) == 3
        capsys.readouterr()
        assert run(tmp_path, "--quiet", *argv, config=cfg) == 2
        assert flag in capsys.readouterr().err

    # kappa * gamma_star^2 = 0.9996: each pair of synchronous sweeps shrinks
    # the error only by that factor, so 10,000 sweeps leave it at 1e-4
    SLOW_NETWORK = {"gains": [[1.0, 0.886], [0.886, 1.0]], "noise_power": 0.0001}

    @pytest.mark.parametrize("argv, code, message", [
        (["ne"], 3, "error: best-response dynamics did not converge (residual 1.353e-04"),
        (["nbs", "--fairness"], 0, ""),
        (["repeated", "--deviant", "1"], 3, "error: player 2: cooperation utility 0.0 "
                                            "does not beat punishment utility "),
    ], ids=["ne", "nbs", "repeated"])
    def test_equilibrium_the_dynamics_miss(self, tmp_path, capsys, argv, code, message):
        # nbs and repeated take the unique equilibrium in closed form: nbs
        # succeeds, and repeated exits 3 for its own reason, the social
        # optimum silencing player 2; only ne's trajectory fails to converge
        cfg = json.loads(default_config_path().read_text())
        cfg["network"].update(self.SLOW_NETWORK)
        assert run(tmp_path, "--quiet", *argv, config=cfg) == code
        assert capsys.readouterr().err.startswith(message)
        if argv[0] == "nbs":
            nbs = read_json(tmp_path, "nbs")
            assert nbs["disagreement"]["profile"] == pytest.approx([0.67023020428] * 2,
                                                                    rel=1e-10)
            assert min(bargaining_gains(nbs)) >= 0.0

    @pytest.mark.parametrize("argv", [["nbs", "--fairness"], ["repeated", "--deviant", "1"]])
    def test_nbs_and_repeated_run_no_dynamics(self, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("br_dynamics ran")

        # the CLI imports br_dynamics from continuous when a command runs
        monkeypatch.setattr(icpower.continuous, "br_dynamics", refuse)
        assert run(tmp_path, "--quiet", *argv) == 0

    @pytest.mark.parametrize("at", [10 ** 9, 10 ** 20, 10 ** 400])
    def test_deviation_stage_past_any_list(self, tmp_path, capsys, at):
        # the cooperation phase counts in closed form: no list of `at` stages
        start = time.perf_counter()
        assert run(tmp_path, "--quiet", "repeated", "--deviant", "1",
                   "--deviate-at", str(at)) == 0
        assert time.perf_counter() - start < 1.0
        artifact = read_json(tmp_path, "repeated")
        assert artifact["deviate_at"] == at
        assert artifact["discounted"] == artifact["u_cooperate"]

    @pytest.mark.parametrize("network", [{"power_cap": float("inf")},
                                         {"gains": [[float("nan"), 0.5], [0.25, 1.0]]}])
    def test_non_finite_network_exit_code(self, tmp_path, capsys, network):
        cfg = json.loads(default_config_path().read_text())
        cfg["network"].update(network)
        assert run(tmp_path, "ne", config=cfg) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key, source", [
        (["pareto", "--n", str(10 ** 20)], None, "--n"),
        (["pareto"], 10 ** 30, "search.n_per_axis"),
    ], ids=["--n", "n_per_axis"])
    def test_plane_numpy_cannot_index_names_the_size(self, tmp_path, small_config, capsys,
                                                      argv, key, source):
        # n^2 past what np.intp indexes: refused before anything is allocated
        if key is not None:
            small_config["search"]["n_per_axis"] = key
        n = argv[-1] if key is None else key
        assert run(tmp_path, "--quiet", *argv, config=small_config) == 2
        assert capsys.readouterr().err == (f"error: {source}: the utility plane at "
                                           f"n = {n} does not fit in memory\n")

    # the μ → 0+ repros, then a few extremes of each network field
    @pytest.mark.parametrize("network", [
        {"gains": [[1e-300, 0.5], [0.25, 1.0]]},
        {"gains": [[1e-320, 0.5], [0.25, 1.0]], "noise_power": 1e10},
        {"gains": [[1e300, 1e300], [1e300, 1e300]]},
        {"power_cap": 1e-300}, {"power_cap": 1e300},
        {"noise_power": 1e-300}, {"noise_power": 1e300},
        {"packet_bits": 10 ** 400}, {"rate_scale": 1e-320},
        {"gains": [[1e10, 0.5], [0.25, 1.0]], "processing_gain": 1e300},
        {"noise_power": 1e-10, "rate_scale": 1e300},
    ], ids=["mu-squared-underflows", "mu-underflows", "huge-gains", "tiny-cap", "huge-cap",
            "tiny-noise", "huge-noise", "packet-bits-past-float", "noise-over-rate-overflows",
            "mu-overflows", "utility-overflows"])
    def test_no_valid_config_ends_in_a_traceback(self, tmp_path, capsys, network):
        cfg = json.loads(default_config_path().read_text())
        cfg["network"].update(network)
        for argv in (["ne"], ["pricing", "--alpha", "0.12"], ["pricing", "--alpha", "0"],
                     ["pareto", "--n", "20"], ["social"], ["nbs", "--fairness"],
                     ["repeated", "--deviant", "1"], ["finite"]):
            code = run(tmp_path, "--quiet", *argv, config=cfg)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), argv
            if code == 2:  # the message opens with the field's path
                assert re.match(r"error: (network|--n): ", err), (argv, err)
            for path in (tmp_path / "out").glob("*.json"):  # as a config would load them
                assert not re.search(r"Infinity|NaN", path.read_text()), (argv, path.name)

    def test_drawn_extreme_networks_end_in_an_exit_code(self, tmp_path, capsys):
        # each field log-uniform over 1e-150..1e150 (processing_gain from 1)
        # and L from 2 to 2**53: each command exits 0, 2 naming a field or 3,
        # and writes only finite JSON
        rng = random.Random(21)
        draw = lambda: 10.0 ** rng.uniform(-150.0, 150.0)
        cfg = json.loads(default_config_path().read_text())
        cfg["search"]["max_iter"] = 50
        for _ in range(40):
            cfg["network"] = {
                "gains": [[draw(), draw()], [draw(), draw()]], "noise_power": draw(),
                "processing_gain": 10.0 ** rng.uniform(0.0, 150.0), "power_cap": draw(),
                "packet_bits": int(2.0 ** rng.uniform(1.0, 53.0)), "rate_scale": draw()}
            for argv in (["ne"], ["pricing", "--alpha", "0.12"],
                         ["pricing", "--sweep", "0:0.3:3"], ["pareto", "--n", "9"],
                         ["social"], ["nbs"], ["nbs", "--fairness"],
                         ["repeated", "--deviant", "1"], ["finite"]):
                code = run(tmp_path, "--quiet", *argv, config=cfg)
                err = capsys.readouterr().err
                assert code in (0, 2, 3), (cfg["network"], argv)
                if code == 2:
                    assert re.match(r"error: network: ", err), (cfg["network"], argv, err)
                for path in (tmp_path / "out").glob("*.json"):
                    assert not re.search(r"Infinity|NaN", path.read_text()), (
                        cfg["network"], argv)
                    path.unlink()

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"network": "\xff"}')
        assert main(["--config", str(path), "ne"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not valid UTF-8" in err

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        st.integers(), st.floats(),
        st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300])),
        max_size=8), max_size=6))
    def test_table_text_is_what_csv_writer_writes(self, rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert icpower.cli._table(["a", "b"], rows) == (["a", "b"], [buf.getvalue()])

    def test_csv_rows_hold_only_ints_and_floats(self, tmp_path, monkeypatch):
        # a numpy scalar's repr, e.g. np.float64(0.5), is not what csv writes
        types = []
        table = icpower.cli._table

        def checked(header, rows):
            types.append({type(v) for row in rows for v in row})
            return table(header, rows)

        monkeypatch.setattr(icpower.cli, "_table", checked)
        for argv in (["ne"], ["pricing", "--alpha", "0.15"],
                     ["pricing", "--sweep", "0:0.15:4"], ["social"], ["nbs", "--fairness"],
                     ["repeated", "--deviant", "1"]):
            run(tmp_path, "--quiet", *argv)
        assert len(types) == 6
        assert all(kinds and kinds <= {int, float} for kinds in types)

    def test_console_script_help(self):
        # run the package under test, installed or not
        src = str(Path(icpower.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-m", "icpower.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert "finite" in proc.stdout and "repeated" in proc.stdout

    def test_default_config_resolves(self):
        cfg = config_from_dict(json.loads(default_config_path().read_text()))
        assert len(cfg.model.gains) == 2


class TestOneParser:
    """The parser is built once, at import, and shared by every main call."""

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["ne"], ["pricing", "--alpha", "0.12"], ["finite"],
                     ["social"], ["ne"]):
            assert run(tmp_path, "--quiet", *argv) == 0
        assert built == []
        icpower.cli._build_parser()  # the count sees a build
        assert built

    def test_repeated_flags_do_not_carry_over(self, tmp_path):
        alone, after = tmp_path / "alone", tmp_path / "after"
        assert main(["--quiet", "--out", str(alone), "repeated"]) == 0
        assert main(["--quiet", "--out", str(after), "repeated", "--deviant", "1",
                     "--deviate-at", "2", "--delta", "0.9"]) == 0
        assert main(["--quiet", "--out", str(after), "repeated"]) == 0
        for name in ("repeated.json", "repeated.csv"):
            assert (after / name).read_bytes() == (alone / name).read_bytes()

    def test_scenario_does_not_carry_over(self, tmp_path):
        assert run(tmp_path, "--quiet", "finite", "--scenario", "nfe") == 0
        assert read_json(tmp_path, "finite")["scenario"] == "nfe"
        assert run(tmp_path, "--quiet", "finite") == 0
        assert read_json(tmp_path, "finite")["scenario"] == load_config(
            default_config_path()).finite.scenario == "ic"

    def test_sweep_does_not_carry_over(self, tmp_path):
        assert run(tmp_path, "--quiet", "pricing", "--sweep", "0:0.12:5") == 0
        assert not (tmp_path / "out" / "pricing.json").exists()
        assert run(tmp_path, "--quiet", "pricing", "--alpha", "0.12") == 0
        assert read_json(tmp_path, "pricing")["alpha"] == 0.12
