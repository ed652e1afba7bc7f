"""JSON run configuration: schema, validation, and the bundled defaults.

Errors carry the offending field path so a bad config is diagnosable from
the message alone.  Every section's record type lives here, the pricing
and on/off game parameters included, and the module imports only
``network`` when it loads: the CLI loads a config before it knows which
solver modules its command needs.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .network import NetworkModel, _Record

if TYPE_CHECKING:
    from .finite import FiniteGame

__all__ = [
    "ConfigError",
    "SolverOutcomeError",
    "Weights",
    "SearchConfig",
    "OutputConfig",
    "PricingConfig",
    "FiniteGameParams",
    "FiniteScenario",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "default_config_path",
]

SCENARIOS = ("nfe", "ic")
GAIN_KEYS = ("h", "h1", "h2")  # the gains a FiniteScenario can take


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


class SolverOutcomeError(ValueError):
    """A valid config has no answer of the kind asked for; the CLI exits 3."""


class Weights(_Record):
    """Convex welfare weights: a pair, one per player."""

    __slots__ = ("w",)

    def __init__(self, w: tuple[float, float]) -> None:
        vals = tuple(float(v) for v in w)
        self._set(vals)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be >= 0")
        if not all(map(math.isfinite, vals)):
            raise ValueError("weights must be finite")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {sum(vals)})")
        if len(vals) != 2:
            raise ValueError(f"need 2, one per player, got {len(vals)}")


class SearchConfig(_Record):
    """Numerical settings: the utility plane's points per axis (``pareto``),
    and the tolerance and sweep limit of ``ne``'s and ``pricing``'s dynamics."""

    __slots__ = ("n_per_axis", "br_tol", "max_iter")

    def __init__(self, n_per_axis: int = 400, br_tol: float = 1e-10,
                 max_iter: int = 10_000) -> None:
        self._set(n_per_axis, br_tol, max_iter)
        if not (isinstance(self.n_per_axis, int) and self.n_per_axis >= 2):
            raise ValueError("n_per_axis must be an integer >= 2")
        if not self.br_tol > 0:
            raise ValueError("br_tol must be > 0")
        if not math.isfinite(self.br_tol):
            raise ValueError("br_tol must be finite")
        if not (type(self.max_iter) is int and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer >= 1")


class OutputConfig(_Record):
    __slots__ = ("directory",)

    def __init__(self, directory: str = "out") -> None:
        self._set(directory)
        if not self.directory:
            raise ValueError("directory must be non-empty")


class PricingConfig(_Record):
    """Linear power surcharge: each player pays alpha per watt of utility."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float) -> None:
        self._set(alpha)
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")


class FiniteGameParams(_Record):
    """Reward/cost parameters of the on/off transmission games."""

    __slots__ = ("throughput_reward", "power_cost", "sinr_threshold")

    def __init__(self, throughput_reward: float = 1.0, power_cost: float = 0.01,
                 sinr_threshold: float = 4.0) -> None:
        self._set(throughput_reward, power_cost, sinr_threshold)
        if not self.throughput_reward > self.power_cost > 0:
            raise ValueError("need throughput_reward > power_cost > 0")
        if not self.sinr_threshold > 0:
            raise ValueError("sinr_threshold must be > 0")

    def power_level(self, gain: float, noise_power: float, processing_gain: float) -> float:
        """The on/off power that puts a lone transmitter of this gain at the threshold."""
        return noise_power * self.sinr_threshold / (gain * processing_gain)


class FiniteScenario(_Record):
    """Finite-game section: reward parameters plus per-scenario gains."""

    __slots__ = ("scenario", "params", *GAIN_KEYS)

    def __init__(self, scenario: str, params: FiniteGameParams, h: Optional[float] = None,
                 h1: Optional[float] = None, h2: Optional[float] = None) -> None:
        self._set(scenario, params, h, h1, h2)
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        for key in GAIN_KEYS:
            v = getattr(self, key)
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if v is not None and not (number and math.isfinite(v) and v > 0):
                raise ConfigError(f"finite.gains.{key}: must be a finite number > 0, "
                                  f"got {v!r}")

    def build(self, model: NetworkModel, scenario: Optional[str] = None) -> FiniteGame:
        """Construct the requested on/off game on the model's noise floor; the
        gain that sets its power level, h or the weak h1, is named where that
        level is not a finite number > 0.  It imports ``finite`` when called,
        so that loading a config does not."""
        from .finite import build_ic_game, build_nfe_game
        name = scenario or self.scenario
        if name not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {name!r}")
        keys = ("h1", "h2") if name == "nfe" else ("h",)
        gains = [getattr(self, key) for key in keys]
        if None in gains:
            raise ConfigError(f"finite.gains: scenario {name!r} needs {' and '.join(keys)}")
        level = self.params.power_level(gains[0], model.noise_power, model.processing_gain)
        if not (math.isfinite(level) and level > 0):
            raise ConfigError(f"finite.gains.{keys[0]}: sets the on/off power level to "
                              f"{level!r}, which must be a finite number > 0")
        build = build_nfe_game if name == "nfe" else build_ic_game
        try:
            return build(self.params, *gains, model.noise_power, model.processing_gain)
        except ValueError as exc:  # the near-far bound on h1/h2
            raise ConfigError(f"finite.gains: {exc}") from exc


class RunConfig(_Record):
    __slots__ = ("model", "finite", "pricing", "weights", "search", "output")

    def __init__(self, model: NetworkModel, finite: Optional[FiniteScenario] = None,
                 pricing: Optional[PricingConfig] = None,
                 weights: Weights = Weights((0.5, 0.5)),
                 search: SearchConfig = SearchConfig(),
                 output: OutputConfig = OutputConfig()) -> None:
        self._set(model, finite, pricing, weights, search, output)


def _check_keys(mapping: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}; "
                          f"allowed: {', '.join(allowed)}")


def _build(path: str, factory, **kwargs):
    try:
        return factory(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_JSON_TYPES = {dict: "object", list: "array", tuple: "array", str: "string", bool: "boolean",
               int: "number", float: "number", type(None): "null"}


def _check_type(value, path: str, kind=0) -> None:
    """Require at ``path`` an object (kind dict), a string (kind str), a finite
    number (kind 0, which no boolean is) or an array whose entries pass at
    kind - 1.  Where an object belongs, the message names the JSON type it
    found instead of echoing what may be a whole document."""
    if kind is dict:
        ok, want = isinstance(value, dict), "an object"
    elif kind is str:
        ok, want = isinstance(value, str), "a string"
    elif kind:
        ok, want = isinstance(value, (list, tuple)), "an array"
    else:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = number and (isinstance(value, int) or math.isfinite(value))
        want = "finite" if number else "a number"
    if not ok:
        got = (_JSON_TYPES.get(type(value), type(value).__name__) if kind is dict
               else json.dumps(value, default=repr))
        raise ConfigError(f"{path}: must be {want}, got {got}")
    if kind not in (0, str, dict):  # an array
        for i, item in enumerate(value):
            _check_type(item, f"{path}[{i}]", kind - 1)


def _record_section(data: dict, key: str, cls, **kinds):
    """Build ``cls`` from the object at ``data[key]``, whose keys are its fields,
    each a number unless ``kinds`` gives its kind for ``_check_type``."""
    values = data[key]
    _check_type(values, key, dict)
    _check_keys(values, cls.__slots__, key)
    for name, value in values.items():
        _check_type(value, f"{key}.{name}", kinds.get(name, 0))
    return _build(key, cls, **values)


def config_from_dict(data: dict) -> RunConfig:
    _check_type(data, "top level", dict)
    _check_keys(data, ("network", "finite", "pricing", "weights", "search", "output"),
                "top level")
    if "network" not in data:
        raise ConfigError("network: section is required")
    model = _record_section(data, "network", NetworkModel, gains=2)

    finite = None
    if "finite" in data:
        fin = data["finite"]
        _check_type(fin, "finite", dict)
        param_keys = FiniteGameParams.__slots__
        _check_keys(fin, ("scenario", *param_keys, "gains"), "finite")
        values = {k: fin[k] for k in param_keys if k in fin}
        for key, value in values.items():
            _check_type(value, f"finite.{key}")
        params = _build("finite", FiniteGameParams, **values)
        gains = fin.get("gains", {})
        _check_type(gains, "finite.gains", dict)
        _check_keys(gains, GAIN_KEYS, "finite.gains")
        scenario = fin.get("scenario", "ic")
        _check_type(scenario, "finite.scenario", str)
        finite = _build("finite", FiniteScenario, scenario=scenario, params=params, **gains)

    pricing = (_record_section(data, "pricing", PricingConfig)
               if "pricing" in data else None)

    weights = {}  # none given: RunConfig's equal weights
    if "weights" in data:
        _check_type(data["weights"], "weights", 1)
        weights["weights"] = _build("weights", Weights, w=tuple(data["weights"]))

    search = (_record_section(data, "search", SearchConfig)
              if "search" in data else SearchConfig())
    output = (_record_section(data, "output", OutputConfig, directory=str)
              if "output" in data else OutputConfig())
    return RunConfig(model=model, finite=finite, pricing=pricing, search=search,
                     output=output, **weights)


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
    return Path(__file__).with_name("data") / "paper.json"
