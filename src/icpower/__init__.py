"""Game-theoretic power control for the two-transmitter interference channel.

Layers: physical channel (network), finite on/off games (finite), the
continuous energy-efficiency game and its equilibria (continuous),
utility-plane efficiency analysis (efficiency), grim-trigger repeated play
(repeated), and a JSON-configured CLI (config, cli).  Only efficiency and
finite import numpy, so their names load on first access (PEP 562).
"""
from importlib import import_module

from .config import (ConfigError, FiniteGameParams, FiniteScenario, OutputConfig,
                     RunConfig, SearchConfig, SolverOutcomeError, Weights,
                     config_from_dict, default_config_path, load_config)
from .continuous import (DegenerateUtilityError, PricingConfig, SolveReport,
                         best_response_ee, best_response_priced, br_dynamics,
                         ee_utility, gamma_star, ne_continuous,
                         packet_throughput, priced_responder, priced_utility)
from .network import NetworkModel, PowerProfile, effective_gain, sinr
from .repeated import (CooperationNotRationalError, DiscountSpec,
                       TriggerPolicy, deviation_payoff, discounted_utility,
                       min_discount, min_discount_from_utilities,
                       simulate_trigger)

__version__ = "0.1.0"

_LAZY = {
    "efficiency": ("EmptyImprovementRegionError", "UtilityPlane", "UtilityPoint",
                   "distance_to_frontier", "fairness_projection", "in_improvement_region",
                   "nash_bargaining", "pareto_frontier", "social_optimum", "utility_grid",
                   "utility_point"),
    "finite": ("Elimination", "FiniteGame", "JointDistribution", "best_responses_finite",
               "build_ic_game", "build_nfe_game", "is_correlated_equilibrium",
               "iterated_dominance", "payoff", "pure_nash", "strictly_dominated"),
}

__all__ = [
    "ConfigError", "FiniteScenario", "OutputConfig", "RunConfig",
    "SearchConfig", "SolverOutcomeError", "config_from_dict",
    "default_config_path", "load_config",
    "DegenerateUtilityError", "PricingConfig", "SolveReport",
    "best_response_ee", "best_response_priced", "br_dynamics", "ee_utility",
    "gamma_star", "ne_continuous", "packet_throughput", "priced_responder",
    "priced_utility",
    "Weights", *_LAZY["efficiency"],
    "FiniteGameParams", *_LAZY["finite"],
    "NetworkModel", "PowerProfile", "effective_gain", "sinr",
    "CooperationNotRationalError", "DiscountSpec", "TriggerPolicy",
    "deviation_payoff", "discounted_utility", "min_discount",
    "min_discount_from_utilities", "simulate_trigger",
    "__version__",
]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
