"""Config loading: defaults, schema validation, error reporting."""
import json
import math
import re
from pathlib import Path

import pytest

from icpower import (ConfigError, RunConfig, config_from_dict,
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

    def test_missing_scenario_gains_surface_on_build(self, base_dict):
        base_dict["finite"]["gains"] = {"h": 1.0}
        cfg = config_from_dict(base_dict)
        with pytest.raises(ConfigError, match="nfe.*h1"):
            cfg.finite.build(cfg.model, scenario="nfe")

    def test_search_validated(self, base_dict):
        base_dict["search"]["n_per_axis"] = 1
        with pytest.raises(ConfigError, match="search: n_per_axis"):
            config_from_dict(base_dict)

    def test_non_object_section(self, base_dict):
        base_dict["output"] = "out"
        with pytest.raises(ConfigError, match="output: expected an object"):
            config_from_dict(base_dict)

    @pytest.mark.parametrize("section, key, value, match", [
        ("network", "gains", [[0.75, 0.5], [math.inf, 1.0]],
         r"network: gains\[1\]\[0\] must be finite"),
        ("network", "gains", [[math.nan, 0.5], [0.25, 1.0]],
         r"network: gains\[0\]\[0\] must be finite"),
        ("network", "noise_power", math.inf, "network: noise_power must be finite"),
        ("network", "processing_gain", math.inf, "network: processing_gain must be finite"),
        ("network", "power_cap", math.inf, "network: power_cap must be finite"),
        ("network", "rate_scale", math.inf, "network: rate_scale must be finite"),
        ("network", "packet_bits", True, "network: packet_bits must be an integer"),
        ("search", "max_iter", True, "search: max_iter must be an integer"),
        ("search", "br_tol", math.inf, "search: br_tol must be finite"),
        ("search", "refine_tol", math.inf, "search: refine_tol must be finite"),
        (None, "weights", [math.nan, 0.5], "weights: weights must be finite"),
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


def test_readme_config_example_is_the_bundled_config():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"`icpower/data/paper\.json`\) looks like:\n\n```json\n(.*?)```",
                      readme, re.S)
    assert block is not None
    example = json.loads(block.group(1))
    assert example == json.loads(default_config_path().read_text())
    config_from_dict(example)
