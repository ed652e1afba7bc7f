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
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

from .network import (NetworkModel, PowerProfile, Powers, _checked, _sinr_per_watt,
                      effective_gain, power_tuple, sinr)
from .numerics import bisect_root

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


def _slope(gamma: float, bits: int) -> float:
    """h = d/dgamma [(1 - exp(-gamma))^L / gamma]: > 0 before gamma_star, < 0 after."""
    q = -math.expm1(-gamma)
    return q ** (bits - 1) * (bits * gamma * math.exp(-gamma) - q) / (gamma * gamma)


@lru_cache(maxsize=None)
def _slope_peak(bits: int) -> tuple[float, float]:
    """Argmax and max of h: for L >= 3 the one root of h' on (0, gamma_star).

    For L = 2, h falls from its limit 1 at 0+, and a point just above 0
    stands in for the peak.
    """
    if bits == 2:
        peak = 1e-13
    else:
        def dh(g: float) -> float:
            # g^3 h'(g) / q^(L-2), q = 1 - exp(-g): ~ (L-1)(L-2) g^2 near 0
            e = math.exp(-g)
            return (e * e * (bits * bits * g * g + 2 * bits * g + 2)
                    - e * (bits * g * g + 2 * bits * g + 4) + 2)

        peak = bisect_root(dh, 1e-3, gamma_star(bits), residual_tol=0.0)
    return peak, _slope(peak, bits)


def best_response_priced(model: NetworkModel, profile: Powers, k: int,
                         pricing: PricingConfig) -> float:
    """Player k's surcharged-utility maximizer over [0, power_cap].

    At gamma = mu_k * s_k the utility is t * mu_k * [(1 - exp(-gamma))^L / gamma
    - c * gamma], c = alpha / (t * mu_k^2), whose one interior maximum solves
    h = c past h's peak (gamma_star at c = 0).  Capped, it must beat silence.
    """
    mu = effective_gain(model, profile, k)
    c = pricing.alpha / (model.rate_scale * mu * mu)
    peak, slope_max = _slope_peak(model.packet_bits)
    if c >= slope_max:
        return 0.0
    # h < 0 < c at gamma_star's outer bracket end, 50
    gamma = gamma_star(model.packet_bits) if c == 0.0 else bisect_root(
        lambda g: _slope(g, model.packet_bits) - c, peak, 50.0, residual_tol=0.0)
    v = min(model.power_cap, gamma / mu)
    return v if packet_throughput(mu * v, model) / v > pricing.alpha * v else 0.0


Responder = Callable[[NetworkModel, Sequence[float], int], float]


def priced_responder(pricing: PricingConfig) -> Responder:
    """Best-response selector for br_dynamics under a power surcharge."""
    return partial(best_response_priced, pricing=pricing)


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
