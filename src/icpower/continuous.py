"""Continuous-power energy-efficiency game and its best-response solvers.

Each player transmits at any power in [0, power_cap] and values bits
correctly delivered per joule: u_k = throughput(sinr_k) / s_k.  The packet
success model makes a unique target SINR optimal, which yields a closed-form
best response and a fixed-point (Jacobi) iteration to the Nash equilibrium.
A linear power surcharge alpha * s_k steers that equilibrium toward the
Pareto frontier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .network import (NetworkModel, PowerProfile, Powers, _checked, _sinr_per_watt,
                      effective_gain, power_tuple, sinr)
from .numerics import bisect_root, golden_section_max

__all__ = [
    "DegenerateUtilityError",
    "PricingConfig",
    "SolveReport",
    "packet_throughput",
    "ee_utility",
    "priced_utility",
    "gamma_star",
    "best_response_ee",
    "best_response_priced",
    "priced_responder",
    "br_dynamics",
    "ne_continuous",
    "trace_csv_rows",
]


class DegenerateUtilityError(ValueError):
    """Raised when the efficiency utility has no interior optimum (L = 1)."""


def packet_throughput(gamma: float, model: NetworkModel) -> float:
    """Effective throughput t * (1 - exp(-gamma))^L at a given SINR.

    Strictly increasing in gamma, 0 at gamma = 0, saturating at rate_scale.
    """
    if gamma < 0:
        raise ValueError("sinr must be >= 0")
    # -expm1(-g) = 1 - exp(-g) without cancellation for small g
    return model.rate_scale * (-math.expm1(-gamma)) ** model.packet_bits


def ee_utility(model: NetworkModel, profile: Powers, k: int) -> float:
    """Energy efficiency of player k: throughput per watt (b/J).

    Defined as 0 at s_k = 0, the continuous limit: for L >= 2 the throughput
    vanishes faster than the power.
    """
    s = _checked(model, profile, k)
    if s[k] == 0.0:
        return 0.0
    return packet_throughput(_sinr_per_watt(model, s, k) * s[k], model) / s[k]


@dataclass(frozen=True)
class PricingConfig:
    """Linear power surcharge: each player pays alpha per watt of utility."""

    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")


def priced_utility(model: NetworkModel, profile: Powers, k: int,
                   pricing: PricingConfig) -> float:
    """Energy efficiency minus the power surcharge; may be negative."""
    s = power_tuple(profile, model.num_players)
    return ee_utility(model, s, k) - pricing.alpha * s[k]


@lru_cache(maxsize=None)
def gamma_star(packet_bits: int, tol: float = 1e-12) -> float:
    """The SINR at which marginal and average throughput-per-SINR coincide.

    Solves L * g * exp(-g) = 1 - exp(-g) for g > 0, the first-order condition
    of maximizing throughput(g)/g.  The root is unique for L >= 2; for L = 1
    the efficiency is monotone decreasing and no positive root exists.
    """
    if not (isinstance(packet_bits, int) and packet_bits >= 1):
        raise ValueError("packet_bits must be an integer >= 1")
    if packet_bits == 1:
        raise DegenerateUtilityError(
            "packet_bits = 1: throughput/power is monotone, no optimal SINR"
        )

    def f(g: float) -> float:
        # L*g*exp(-g) - (1 - exp(-g)); expm1 keeps the tail exact near 0
        return packet_bits * g * math.exp(-g) + math.expm1(-g)

    return bisect_root(f, 1e-6, 50.0, residual_tol=tol)


def best_response_ee(model: NetworkModel, profile: Powers, k: int) -> float:
    """Player k's efficiency-maximizing power against fixed opponents.

    Closed form min(power_cap, gamma_star / mu_k) where mu_k is the SINR per
    watt given the opponents' entries of ``profile`` (entry k is ignored).
    """
    mu = effective_gain(model, profile, k)
    return min(model.power_cap, gamma_star(model.packet_bits) / mu)


def best_response_priced(model: NetworkModel, profile: Powers, k: int,
                         pricing: PricingConfig, tol: float = 1e-10) -> float:
    """Player k's surcharged-utility maximizer over [0, power_cap].

    A 64-point scan locates the bracket (guarding the s_k = 0 boundary),
    golden-section search refines it, and the boundary powers stay in the
    candidate set.
    """
    mu = effective_gain(model, profile, k)

    def f(v: float) -> float:
        if v == 0.0:
            return 0.0
        return packet_throughput(mu * v, model) / v - pricing.alpha * v

    xs = np.linspace(0.0, model.power_cap, 64)
    values = [f(float(v)) for v in xs]
    i = int(np.argmax(values))
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, len(xs) - 1)])
    refined = golden_section_max(f, lo, hi, tol=tol)
    candidates = (refined, float(xs[i]), 0.0, model.power_cap)
    return max(candidates, key=f)


Responder = Callable[[NetworkModel, Sequence[float], int], float]


def priced_responder(pricing: PricingConfig, tol: float = 1e-10) -> Responder:
    """Best-response selector for br_dynamics under a power surcharge."""

    def responder(model: NetworkModel, profile: Sequence[float], k: int) -> float:
        return best_response_priced(model, profile, k, pricing, tol=tol)

    return responder


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a best-response iteration.

    ``utilities`` are the plain energy efficiencies at the solution (also for
    surcharged runs: the surcharge shapes the equilibrium, the delivered b/J
    is still the performance metric).  ``trace`` holds every profile visited,
    starting with the initializer.
    """

    solution: PowerProfile
    utilities: tuple[float, ...]
    normalized_utilities: tuple[float, ...]
    sinrs: tuple[float, ...]
    iterations: int
    trace: tuple[tuple[float, ...], ...]
    converged: bool
    residual: float
    tolerance: float

    def __post_init__(self) -> None:
        if len(self.trace) != self.iterations + 1:
            raise ValueError("trace must hold iterations + 1 profiles")
        if self.converged and not self.residual <= self.tolerance:
            raise ValueError("converged report with residual above tolerance")

    def to_dict(self) -> dict:
        return {
            "solution": list(self.solution.powers),
            "utilities": list(self.utilities),
            "normalized_utilities": list(self.normalized_utilities),
            "sinrs": list(self.sinrs),
            "iterations": self.iterations,
            "converged": self.converged,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "trace": [list(t) for t in self.trace],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        return cls(
            solution=PowerProfile(tuple(data["solution"])),
            utilities=tuple(data["utilities"]),
            normalized_utilities=tuple(data["normalized_utilities"]),
            sinrs=tuple(data["sinrs"]),
            iterations=int(data["iterations"]),
            trace=tuple(tuple(t) for t in data["trace"]),
            converged=bool(data["converged"]),
            residual=float(data["residual"]),
            tolerance=float(data["tolerance"]),
        )


def _report(model: NetworkModel, profile: tuple[float, ...],
            trace: list[tuple[float, ...]], iterations: int,
            converged: bool, residual: float, tol: float) -> SolveReport:
    utilities = tuple(ee_utility(model, profile, k) for k in range(model.num_players))
    scale = model.noise_power / model.rate_scale
    return SolveReport(
        solution=PowerProfile(profile),
        utilities=utilities,
        normalized_utilities=tuple(u * scale for u in utilities),
        sinrs=tuple(sinr(model, profile, k) for k in range(model.num_players)),
        iterations=iterations,
        trace=tuple(trace),
        converged=converged,
        residual=residual,
        tolerance=tol,
    )


def br_dynamics(model: NetworkModel, responder: Optional[Responder] = None,
                init: Optional[Powers] = None, tol: float = 1e-10,
                max_iter: int = 10_000) -> SolveReport:
    """Synchronous best-response iteration to a fixed point.

    All players update simultaneously from the previous profile until the
    max-norm step and the residual, the next sweep's step, are both at most
    ``tol``.  Non-convergence within ``max_iter`` sweeps is reported.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if responder is None:
        responder = best_response_ee
    k_range = range(model.num_players)
    if init is None:
        current = (model.power_cap,) * model.num_players
    else:
        current = power_tuple(init, model.num_players)
    trace = [current]
    iterations = 0
    nxt = tuple(responder(model, current, k) for k in k_range)
    for _ in range(max_iter):
        trace.append(nxt)
        iterations += 1
        step = max(abs(a - b) for a, b in zip(nxt, current))
        current = nxt
        # the residual sweep is the next iterate if the loop goes on
        nxt = tuple(responder(model, current, k) for k in k_range)
        residual = max(abs(a - b) for a, b in zip(nxt, current))
        if step <= tol and residual <= tol:
            break
    return _report(model, current, trace, iterations, residual <= tol, residual, tol)


def ne_continuous(model: NetworkModel, tol: float = 1e-10,
                  max_iter: int = 10_000) -> SolveReport:
    """Nash equilibrium of the unpriced game via closed-form best responses."""
    return br_dynamics(model, responder=best_response_ee, tol=tol, max_iter=max_iter)


def trace_csv_rows(model: NetworkModel, report: SolveReport) -> tuple[list[str], list[list]]:
    """Header and rows for a per-iteration CSV of the dynamics trace."""
    ks = range(model.num_players)
    header = (["iter"] + [f"s_{k + 1}" for k in ks]
              + [f"u_{k + 1}" for k in ks] + [f"gamma_{k + 1}" for k in ks])
    rows = []
    for n, prof in enumerate(report.trace):
        rows.append([n, *prof,
                     *(ee_utility(model, prof, k) for k in ks),
                     *(sinr(model, prof, k) for k in ks)])
    return header, rows
