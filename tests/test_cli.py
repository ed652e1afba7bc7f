"""CLI: console output, artifacts, exit codes, determinism."""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icpower
from icpower import (FiniteGame, SolveReport, config_from_dict,
                     default_config_path, load_config)
from icpower.cli import main

from test_efficiency import brute_frontier, reference_grid


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
        assert game.num_players == 2

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

    def test_sweep_artifact_rows(self, tmp_path):
        assert run(tmp_path, "--quiet", "pricing", "--sweep", "0:0.12:5") == 0
        rows = read_csv(tmp_path, "pricing_sweep")
        assert rows[0][0] == "alpha"
        assert len(rows) == 6
        assert [float(r[0]) for r in rows[1:]] == pytest.approx(
            [0.0, 0.03, 0.06, 0.09, 0.12])
        assert all(r[-1] == "1" for r in rows[1:])

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

    def test_deprecated_priced_tol_is_ignored(self, tmp_path, small_config):
        assert "priced_tol" not in small_config["search"]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert run(tmp_path / "a", "--quiet", "pricing", config=small_config) == 0
        small_config["search"]["priced_tol"] = 1e-7
        assert run(tmp_path / "b", "--quiet", "pricing", config=small_config) == 0
        assert ((tmp_path / "a" / "out" / "pricing.json").read_bytes()
                == (tmp_path / "b" / "out" / "pricing.json").read_bytes())

    def test_malformed_sweep_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "pricing", "--sweep", "0-1-5") == 2
        assert "lo:hi:steps" in capsys.readouterr().err

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
    ], ids=["reference", "scaled"])
    def test_pareto_golden(self, tmp_path, network, n):
        cfg = json.loads(default_config_path().read_text())
        cfg["network"].update(network)
        assert run(tmp_path, "--quiet", "pareto", "--n", str(n), config=cfg) == 0
        want_csv, want_json = reference_pareto(
            load_config(tmp_path / "config.json").model, n)
        out = tmp_path / "out"
        assert (out / "pareto.csv").read_bytes() == want_csv.encode("utf-8")
        assert (out / "pareto.json").read_bytes() == want_json.encode("utf-8")

    def test_social(self, tmp_path, capsys):
        assert run(tmp_path, "social", "--n", "150") == 0
        out = capsys.readouterr().out
        assert "š/σ²" in out and "σ²u/t" in out
        artifact = read_json(tmp_path, "social")
        assert artifact["normalized"] == pytest.approx([0.278, 0.446], abs=0.005)

    def test_nbs_with_fairness(self, tmp_path, capsys):
        assert run(tmp_path, "nbs", "--n", "150", "--fairness") == 0
        out = capsys.readouterr().out
        assert "ṡ/σ²" in out and "equal-gain point" in out
        artifact = read_json(tmp_path, "nbs")
        assert set(artifact) == {"disagreement", "solution", "fairness"}
        assert artifact["solution"]["normalized"] == pytest.approx(
            [0.288, 0.434], abs=0.005)


class TestRepeated:
    def test_summary_and_artifacts(self, tmp_path, capsys):
        assert run(tmp_path, "repeated", "--n", "150", "--deviant", "1",
                   "--delta", "0.9") == 0
        out = capsys.readouterr().out
        assert "δ̲ =" in out and "unprofitable" in out
        artifact = read_json(tmp_path, "repeated")
        assert 0.0 < artifact["min_discount"] < 1.0
        rows = read_csv(tmp_path, "repeated")
        assert rows[0][0] == "stage"
        assert len(rows) == 21  # header + default 20 stages

    def test_bad_deviant_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "repeated", "--n", "80",
                   "--deviant", "3") == 2
        assert "--deviant" in capsys.readouterr().err

    def test_delta_out_of_range(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "repeated", "--n", "80",
                   "--delta", "1.0") == 2
        assert "--delta" in capsys.readouterr().err

    def test_negative_stages_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "repeated", "--n", "80",
                   "--stages", "-3") == 2
        assert "--stages" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_deviation_stage_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "--quiet", "repeated", "--n", "80",
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

    @pytest.mark.parametrize("command", ["pareto", "social", "nbs", "repeated"])
    def test_zero_grid_size_rejected(self, tmp_path, capsys, command):
        assert run(tmp_path, "--quiet", command, "--n", "0") == 2
        assert "n_per_axis must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("network", [{"power_cap": float("inf")},
                                         {"gains": [[float("nan"), 0.5], [0.25, 1.0]]}])
    def test_non_finite_network_exit_code(self, tmp_path, capsys, network):
        cfg = json.loads(default_config_path().read_text())
        cfg["network"].update(network)
        assert run(tmp_path, "ne", config=cfg) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"network": "\xff"}')
        assert main(["--config", str(path), "ne"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not valid UTF-8" in err

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
        assert cfg.model.num_players == 2
