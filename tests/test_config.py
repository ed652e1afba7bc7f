"""Config loading: defaults, schema validation, error reporting."""
import json
import math
import re
from pathlib import Path

import pytest

from icpower import (ConfigError, RunConfig, Weights, config_from_dict,
                     default_config_path, load_config, pure_nash)

from conftest import make_model


@pytest.fixture()
def base_dict():
    return json.loads(default_config_path().read_text())


class TestDefaults:
    def test_bundled_config_is_reference_network(self):
        cfg = load_config(default_config_path())
        assert cfg.model == make_model()
        assert cfg.pricing.alpha == 0.12
        assert cfg.weights.w == (0.5, 0.5)
        assert cfg.search.n_per_axis == 400
        assert cfg.finite.scenario == "ic"

    def test_optional_sections_defaulted(self, base_dict):
        cfg = config_from_dict({"network": base_dict["network"]})
        assert cfg.finite is None and cfg.pricing is None
        assert cfg.weights.w == (0.5, 0.5)
        assert cfg.search.max_iter == 10_000
        assert cfg.output.directory == "out"

    def test_finite_section_builds_games(self, base_dict):
        cfg = config_from_dict(base_dict)
        ic = cfg.finite.build(cfg.model)
        assert pure_nash(ic) == {(0, 1), (1, 0)}
        nfe = cfg.finite.build(cfg.model, scenario="nfe")
        assert pure_nash(nfe) == {(0, 1)}


class TestValidation:
    def test_network_required(self):
        with pytest.raises(ConfigError, match="network"):
            config_from_dict({})

    def test_unknown_top_level_key(self, base_dict):
        base_dict["nets"] = {}
        with pytest.raises(ConfigError, match="top level: unknown key.*nets"):
            config_from_dict(base_dict)

    def test_unknown_section_key_has_path(self, base_dict):
        base_dict["search"]["n"] = 10
        with pytest.raises(ConfigError, match="search: unknown key"):
            config_from_dict(base_dict)

    def test_weights_error_names_field(self, base_dict):
        base_dict["weights"] = [0.5, 0.6]
        with pytest.raises(ConfigError, match="weights"):
            config_from_dict(base_dict)

    @pytest.mark.parametrize("w, message", [
        ((0.2, 0.3, 0.5), r"^need 2, one per player, got 3$"),
        ((1.0,), r"^need 2, one per player, got 1$"),
        ((0.5, 0.6, 0.1), r"^weights must sum to 1"),  # the count is checked last
    ], ids=["three", "one", "three-bad-sum"])
    def test_weights_are_a_pair(self, w, message):
        with pytest.raises(ValueError, match=message):
            Weights(w)

    def test_one_weight_per_player(self, base_dict):
        base_dict["weights"] = [0.5, 0.25, 0.25]
        with pytest.raises(ConfigError, match=r"^weights: need 2, one per player, got 3$"):
            config_from_dict(base_dict)
        base_dict["network"]["gains"] = [[1.0, 0.2, 0.1], [0.15, 0.9, 0.2],
                                         [0.1, 0.25, 1.1]]
        with pytest.raises(ConfigError,
                           match=r"^network: gains: need exactly 2 players, got 3$"):
            config_from_dict(base_dict)
        base_dict["network"]["gains"] = [[1.0, 0.2], [0.15, 0.9]]
        del base_dict["weights"]
        assert config_from_dict(base_dict).weights.w == (0.5, 0.5)

    def test_network_invariant_has_path(self, base_dict):
        base_dict["network"]["noise_power"] = 0.0
        with pytest.raises(ConfigError, match="network: noise_power"):
            config_from_dict(base_dict)

    def test_pricing_validated(self, base_dict):
        base_dict["pricing"] = {"alpha": -1.0}
        with pytest.raises(ConfigError, match="pricing"):
            config_from_dict(base_dict)

    def test_bad_scenario_rejected(self, base_dict):
        base_dict["finite"]["scenario"] = "duopoly"
        with pytest.raises(ConfigError, match="finite.*scenario"):
            config_from_dict(base_dict)

    @pytest.mark.parametrize("value, shown", [
        (None, "null"), (True, "true"), (1, "1"), ({}, "{}"), ({"a": 1}, '{"a": 1}'),
        (math.nan, "NaN"), (["ic"], '["ic"]'),
    ], ids=["null", "true", "one", "empty-object", "object", "nan", "array"])
    def test_scenario_must_be_a_string(self, base_dict, value, shown):
        # a scenario is checked for its JSON shape at its own path, like every value
        base_dict["finite"]["scenario"] = value
        with pytest.raises(ConfigError, match=rf"^finite\.scenario: must be a string, "
                                              rf"got {re.escape(shown)}$"):
            config_from_dict(base_dict)

    def test_missing_scenario_gains_surface_on_build(self, base_dict):
        base_dict["finite"]["gains"] = {"h": 1.0}
        cfg = config_from_dict(base_dict)
        with pytest.raises(ConfigError, match="nfe.*h1"):
            cfg.finite.build(cfg.model, scenario="nfe")

    def test_unknown_scenario_rejected_on_build(self, base_dict):
        cfg = config_from_dict(base_dict)
        with pytest.raises(ConfigError,
                           match=r"^scenario must be one of \('nfe', 'ic'\), got 'duopoly'$"):
            cfg.finite.build(cfg.model, scenario="duopoly")

    def test_search_validated(self, base_dict):
        base_dict["search"]["n_per_axis"] = 1
        with pytest.raises(ConfigError, match="search: n_per_axis"):
            config_from_dict(base_dict)

    def test_top_level_array_rejected(self, base_dict):
        with pytest.raises(ConfigError, match=r"^top level: must be an object, got array$"):
            config_from_dict([base_dict])

    def test_non_object_section(self, base_dict):
        base_dict["output"] = "out"
        with pytest.raises(ConfigError, match="output: must be an object, got string"):
            config_from_dict(base_dict)

    @pytest.mark.parametrize("section, key, value, match", [
        pytest.param("network", "gains", [[0.75, 0.5], [math.inf, 1.0]],
                     r"network\.gains\[1\]\[0\]: must be finite, got Infinity",
                     id="network-gains-inf"),
        pytest.param("network", "gains", [[math.nan, 0.5], [0.25, 1.0]],
                     r"network\.gains\[0\]\[0\]: must be finite, got NaN",
                     id="network-gains-nan"),
        ("network", "noise_power", math.inf,
         r"network\.noise_power: must be finite, got Infinity"),
        ("network", "processing_gain", math.inf,
         r"network\.processing_gain: must be finite, got Infinity"),
        ("network", "power_cap", math.inf,
         r"network\.power_cap: must be finite, got Infinity"),
        ("network", "rate_scale", math.inf,
         r"network\.rate_scale: must be finite, got Infinity"),
        ("network", "packet_bits", True, r"network\.packet_bits: must be a number, got true"),
        ("search", "max_iter", True, r"search\.max_iter: must be a number, got true"),
        ("search", "br_tol", math.inf, r"search\.br_tol: must be finite, got Infinity"),
        # a key the search does not have is unknown, whatever its value
        ("search", "refine_tol", math.inf, r"^search: unknown key\(s\) refine_tol; "),
        pytest.param(None, "weights", [math.nan, 0.5],
                     r"weights\[0\]: must be finite, got NaN", id="weights-nan"),
        ("search", "br_tol", True, r"^search\.br_tol: must be a number, got true$"),
        ("search", "refine_tol", True, r"^search: unknown key\(s\) refine_tol; "),
        ("network", "noise_power", True, r"^network\.noise_power: must be a number"),
        ("network", "processing_gain", True,
         r"^network\.processing_gain: must be a number"),
        ("network", "power_cap", True, r"^network\.power_cap: must be a number"),
        ("network", "rate_scale", True, r"^network\.rate_scale: must be a number"),
        pytest.param("network", "gains", [[0.75, True], [0.25, 1.0]],
                     r"^network\.gains\[0\]\[1\]: must be a number, got true$",
                     id="network-gains-true"),
        ("pricing", "alpha", True, r"^pricing\.alpha: must be a number"),
        ("pricing", "alpha", math.inf, r"^pricing\.alpha: must be finite, got Infinity$"),
        pytest.param(None, "weights", [True, False],
                     r"^weights\[0\]: must be a number, got true$", id="weights-true"),
        ("finite", "sinr_threshold", True, r"^finite\.sinr_threshold: must be a number"),
        ("finite", "throughput_reward", math.inf,
         r"^finite\.throughput_reward: must be finite, got Infinity$"),
        (None, "weights", 0.5, r"^weights: must be an array, got 0.5$"),
        pytest.param("finite", "gains", [], r"^finite\.gains: must be an object, got array$",
                     id="finite-gains-empty"),
        ("output", "directory", "", r"^output: directory must be non-empty$"),
        ("search", "br_tol", 0, r"^search: br_tol must be > 0$"),
        # a list-valued case needs its own id: pytest would name it by its place in this list
    ])
    def test_non_finite_and_boolean_numbers_rejected(self, base_dict, section, key,
                                                     value, match):
        (base_dict[section] if section else base_dict)[key] = value
        with pytest.raises(ConfigError, match=match):
            config_from_dict(base_dict)


    @pytest.mark.parametrize("key, value", [
        ("h", "x"), ("h", True), ("h", math.inf), ("h1", -0.5), ("h2", 0),
    ])
    def test_finite_gains_checked_at_load(self, base_dict, key, value):
        base_dict["finite"]["gains"][key] = value
        with pytest.raises(ConfigError, match=rf"^finite\.gains\.{key}: must be a finite"):
            config_from_dict(base_dict)


class TestLoadConfig:
    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "network": [,]\n}')
        with pytest.raises(ConfigError, match=r"invalid JSON at line 2, column \d+"):
            load_config(path)

    def test_non_utf8_reports_path_and_byte_offset(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"net\xffwork": {}}')
        with pytest.raises(ConfigError, match=r"latin1\.json: not valid UTF-8 at byte 5"):
            load_config(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.json")

    def test_round_trip_of_edited_config(self, tmp_path, base_dict):
        base_dict["network"]["power_cap"] = 7.5
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(base_dict))
        cfg = load_config(path)
        assert cfg.model.power_cap == 7.5
        assert isinstance(cfg, RunConfig)


def test_readme_quick_start_runs_and_prints_what_it_says(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    exec(block.group(1), {})
    printed = capsys.readouterr().out.splitlines()
    # each "print(...)  # value" comment gives the value, "..." standing for digits
    wants = re.findall(r"^print\(.*\)\s+# (.*)$", block.group(1), re.M)
    assert wants and len(printed) == len(wants)
    for line, want in zip(printed, wants):
        assert re.fullmatch(re.escape(want).replace(r"\.\.\.", r"\d*"), line)


def test_readme_config_example_is_the_bundled_config():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"`icpower/data/paper\.json`\) looks like:\n\n```json\n(.*?)```",
                      readme, re.S)
    assert block is not None
    example = json.loads(block.group(1))
    assert example == json.loads(default_config_path().read_text())
    config_from_dict(example)
