"""JSON run configuration: schema, validation, and the bundled defaults.

Errors carry the offending field path so a bad config is diagnosable from
the message alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .continuous import PricingConfig
from .efficiency import Weights
from .finite import FiniteGame, FiniteGameParams, build_ic_game, build_nfe_game
from .network import NetworkModel

__all__ = [
    "ConfigError",
    "SearchConfig",
    "OutputConfig",
    "FiniteScenario",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "default_config_path",
]

SCENARIOS = ("nfe", "ic")


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


@dataclass(frozen=True)
class SearchConfig:
    """Numerical search settings shared by the solver commands."""

    n_per_axis: int = 400
    br_tol: float = 1e-10
    refine_tol: float = 1e-10
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if not (isinstance(self.n_per_axis, int) and self.n_per_axis >= 2):
            raise ValueError("n_per_axis must be an integer >= 2")
        for name in ("br_tol", "refine_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (type(self.max_iter) is int and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer >= 1")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"

    def __post_init__(self) -> None:
        if not self.directory:
            raise ValueError("directory must be non-empty")


@dataclass(frozen=True)
class FiniteScenario:
    """Finite-game section: reward parameters plus per-scenario gains."""

    scenario: str
    params: FiniteGameParams
    h: Optional[float] = None
    h1: Optional[float] = None
    h2: Optional[float] = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        for key in ("h", "h1", "h2"):
            v = getattr(self, key)
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if v is not None and not (number and math.isfinite(v) and v > 0):
                raise ConfigError(f"finite.gains.{key}: must be a finite number > 0, "
                                  f"got {v!r}")

    def build(self, model: NetworkModel, scenario: Optional[str] = None) -> FiniteGame:
        """Construct the requested on/off game on the model's noise floor."""
        name = scenario or self.scenario
        if name == "nfe":
            if self.h1 is None or self.h2 is None:
                raise ConfigError("finite.gains: scenario 'nfe' needs h1 and h2")
            return build_nfe_game(self.params, self.h1, self.h2,
                                  model.noise_power, model.processing_gain)
        if name == "ic":
            if self.h is None:
                raise ConfigError("finite.gains: scenario 'ic' needs h")
            return build_ic_game(self.params, self.h,
                                 model.noise_power, model.processing_gain)
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {name!r}")


@dataclass(frozen=True)
class RunConfig:
    model: NetworkModel
    finite: Optional[FiniteScenario] = None
    pricing: Optional[PricingConfig] = None
    weights: Weights = field(default_factory=lambda: Weights((0.5, 0.5)))
    search: SearchConfig = field(default_factory=SearchConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def _check_keys(mapping: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}; "
                          f"allowed: {', '.join(allowed)}")


def _section(data: dict, key: str) -> dict:
    value = data[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object, got {type(value).__name__}")
    return value


def _build(path: str, factory, **kwargs):
    try:
        return factory(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"top level: expected an object, got {type(data).__name__}")
    _check_keys(data, ("network", "finite", "pricing", "weights", "search", "output"),
                "top level")
    if "network" not in data:
        raise ConfigError("network: section is required")

    net = _section(data, "network")
    _check_keys(net, ("gains", "noise_power", "processing_gain", "power_cap",
                      "packet_bits", "rate_scale"), "network")
    model = _build("network", NetworkModel, **net)

    finite = None
    if "finite" in data:
        fin = _section(data, "finite")
        _check_keys(fin, ("scenario", "throughput_reward", "power_cost",
                          "sinr_threshold", "gains"), "finite")
        params = _build("finite", FiniteGameParams, **{
            k: fin[k] for k in ("throughput_reward", "power_cost", "sinr_threshold")
            if k in fin})
        gains = fin.get("gains", {})
        if not isinstance(gains, dict):
            raise ConfigError("finite.gains: expected an object")
        _check_keys(gains, ("h", "h1", "h2"), "finite.gains")
        finite = _build("finite", FiniteScenario,
                        scenario=fin.get("scenario", "ic"), params=params, **gains)

    pricing = None
    if "pricing" in data:
        pri = _section(data, "pricing")
        _check_keys(pri, ("alpha",), "pricing")
        pricing = _build("pricing", PricingConfig, **pri)

    if "weights" in data:
        if not isinstance(data["weights"], (list, tuple)):
            raise ConfigError("weights: expected an array")
        weights = _build("weights", Weights, w=tuple(data["weights"]))
    else:
        weights = Weights((0.5, 0.5))

    search = SearchConfig()
    if "search" in data:
        sea = _section(data, "search")
        sea = {k: v for k, v in sea.items() if k != "priced_tol"}  # deprecated, ignored
        _check_keys(sea, ("n_per_axis", "br_tol", "refine_tol", "max_iter"), "search")
        search = _build("search", SearchConfig, **sea)

    output = OutputConfig()
    if "output" in data:
        out = _section(data, "output")
        _check_keys(out, ("directory",), "output")
        output = _build("output", OutputConfig, **out)

    return RunConfig(model=model, finite=finite, pricing=pricing,
                     weights=weights, search=search, output=output)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file.

    Raises ConfigError with the byte offset of invalid UTF-8, with line/column
    on parse failures and with the field path on validation failures; I/O
    errors propagate as OSError.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(data)


def default_config_path() -> Path:
    """Path of the bundled default config (the reference network)."""
    return Path(str(resources.files("icpower").joinpath("data/paper.json")))
