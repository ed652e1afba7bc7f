"""Game-theoretic power control for the two-transmitter interference channel.

Layers: physical channel (network), finite on/off games (finite), the
continuous energy-efficiency game and its equilibria (continuous),
efficiency analysis on the utility plane and its frontier (efficiency),
grim-trigger repeated play (repeated), bisection and golden-section
search (numerics), and a JSON-configured CLI (config, cli).  The package
re-exports every module's ``__all__`` except the CLI's.  Only finite imports
numpy at import time (efficiency imports it inside the functions that build
the utility plane), so finite's names, listed in ``_LAZY``, load on first
access (PEP 562).
"""
from importlib import import_module

from . import config, continuous, efficiency, network, numerics, repeated
from .config import *
from .continuous import *
from .efficiency import *
from .network import *
from .numerics import *
from .repeated import *

__version__ = "0.1.0"

# FiniteGameParams, which finite also exports, comes eagerly from config.
_LAZY = {
    "finite": ("Elimination", "FiniteGame", "JointDistribution", "best_responses_finite",
               "build_ic_game", "build_nfe_game", "is_correlated_equilibrium",
               "iterated_dominance", "payoff", "pure_nash", "strictly_dominated"),
}

__all__ = [*config.__all__, *continuous.__all__, *efficiency.__all__, *network.__all__,
           *numerics.__all__, *repeated.__all__, *_LAZY["finite"], "__version__"]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
