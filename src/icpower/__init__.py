"""Game-theoretic power control for the two-transmitter interference channel.

Layers: physical channel (network), finite on/off games (finite), the
continuous energy-efficiency game and its equilibria (continuous),
utility-plane efficiency analysis (efficiency), grim-trigger repeated play
(repeated), root bracketing (numerics), and a JSON-configured CLI (config,
cli).  The package re-exports every module's ``__all__`` except the CLI's.
Only efficiency and finite import numpy, so their names, listed in
``_LAZY``, load on first access (PEP 562).
"""
from importlib import import_module

from . import config, continuous, network, numerics, repeated
from .config import *
from .continuous import *
from .network import *
from .numerics import *
from .repeated import *

__version__ = "0.1.0"

# Weights and FiniteGameParams, which efficiency and finite also export,
# come eagerly from config.
_LAZY = {
    "efficiency": ("EmptyImprovementRegionError", "UtilityPlane", "UtilityPoint",
                   "bargaining_points", "distance_to_frontier", "fairness_projection", "grid_csv_rows",
                   "in_improvement_region", "nash_bargaining", "pareto_frontier",
                   "social_optimum", "utility_grid", "utility_point"),
    "finite": ("Elimination", "FiniteGame", "JointDistribution", "best_responses_finite",
               "build_ic_game", "build_nfe_game", "is_correlated_equilibrium",
               "iterated_dominance", "payoff", "pure_nash", "strictly_dominated"),
}

__all__ = [*config.__all__, *continuous.__all__, *network.__all__, *numerics.__all__,
           *repeated.__all__, *_LAZY["efficiency"], *_LAZY["finite"], "__version__"]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
