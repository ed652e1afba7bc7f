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
    if not gamma >= 0:  # NaN fails too
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
def gamma_star(packet_bits: int) -> float:
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

    return bisect_root(f, 1e-6, 50.0, residual_tol=1e-12)


def best_response_ee(model: NetworkModel, profile: Powers, k: int) -> float:
    """Player k's efficiency-maximizing power against fixed opponents.

    Closed form min(power_cap, gamma_star / mu_k) where mu_k is the SINR per
    watt given the opponents' entries of ``profile`` (entry k is ignored).
    A mu_k that underflows to 0 takes the limit mu_k -> 0+, the cap.
    """
    mu = effective_gain(model, profile, k)
    if mu == 0.0:
        return model.power_cap
    return min(model.power_cap, gamma_star(model.packet_bits) / mu)


def _slope(gamma: float, bits: int) -> float:
    """h = d/dgamma [(1 - exp(-gamma))^L / gamma]: > 0 before gamma_star, < 0 after."""
    q = -math.expm1(-gamma)
    return q ** (bits - 1) * (bits * gamma * math.exp(-gamma) - q) / (gamma * gamma)


@lru_cache(maxsize=None)
def _slope_peak(bits: int) -> tuple[float, float]:
    """Argmax and max of h: for L >= 3 the one root of h' on (0, gamma_star),
    bisected on g^3 h'(g) / q^(L-2) ~ (L-1)(L-2) g^2, q = 1 - exp(-g).  For
    L = 2 that form cancels near 0, where h falls from its limit 1 at 0+, and
    a point just above 0 stands in for the peak."""
    def scaled_derivative(g: float) -> float:
        e = math.exp(-g)
        return (e * e * (bits * bits * g * g + 2 * bits * g + 2)
                - e * (bits * g * g + 2 * bits * g + 4) + 2)

    peak = 1e-13 if bits == 2 else bisect_root(
        scaled_derivative, 1e-3, gamma_star(bits), residual_tol=0.0)
    return peak, _slope(peak, bits)


def _slope_root(c: float, bits: int, peak: float) -> float:
    """The root of f = h - c past the peak, for 0 < c < h(peak) and the peak
    of ``_slope_peak``: secant steps from (peak, gamma_star) on a bracket that
    each f's sign narrows.  A step that leaves it or fails to halve the step
    before last is a bisection step.  Past a 2-ulp step, |f| within L ulps of
    c (the rounding q^(L-1) carries into h) or a slope that rounding leaves
    >= 0, doubling strides find a sign change that ``bisect_root`` closes:
    f(root) == 0 or f flips at an adjacent float, as on [peak, 50].  No
    point is evaluated twice."""
    memo = {peak: _slope_peak(bits)[1] - c}

    def f(g: float) -> float:
        if g not in memo:
            memo[g] = _slope(g, bits) - c
        return memo[g]

    lo, hi = peak, 50.0  # f(peak) > 0 > f(50)
    last, g = peak, gamma_star(bits)
    old = step = hi - lo
    while True:  # each step lands strictly inside the shrinking bracket
        fg = f(g)
        if fg == 0.0:
            return g
        lo, hi = (g, hi) if fg > 0.0 else (lo, g)
        slope = (fg - memo[last]) / (g - last)
        # f falls, so at a slope >= 0 rounding outweighs f's change: g is in
        # f's noise band, about g - last from the root
        secant = fg / slope if slope < 0.0 else g - last
        if slope >= 0.0 or abs(secant) <= 2.0 * math.ulp(g) or abs(fg) <= bits * math.ulp(c):
            break
        good = lo < g - secant < hi and abs(secant) <= 0.5 * abs(old)
        old, step = step, secant if good else g - 0.5 * (lo + hi)
        if abs(step) <= 2.0 * math.ulp(g):
            break
        last, g = g, g - step
    up, width = fg > 0.0, max(math.ulp(g), abs(secant))
    while True:  # ends at lo or hi at worst, whose signs differ
        x = min(g + width, hi) if up else max(g - width, lo)
        if (f(x) > 0.0) != up:
            break
        g, width = x, 2.0 * width
    return bisect_root(f, min(g, x), max(g, x), residual_tol=0.0)


def best_response_priced(model: NetworkModel, profile: Powers, k: int,
                         pricing: PricingConfig) -> float:
    """Player k's surcharged-utility maximizer over [0, power_cap].

    At gamma = mu_k * s_k the utility is t * mu_k * [(1 - exp(-gamma))^L / gamma
    - c * gamma], c = alpha / (t * mu_k^2), whose one interior maximum solves
    h = c past h's peak: gamma_star at c = 0, else the secant root that
    ``_slope_root`` certifies as a bisection would.  Capped, it must beat silence.
    Where t * mu_k^2 underflows to 0 the limit mu_k -> 0+ holds: c -> inf
    prices every power out, unless alpha = 0 leaves the unpriced response.
    """
    mu = effective_gain(model, profile, k)
    scale = model.rate_scale * mu * mu
    if scale == 0.0:
        return best_response_ee(model, profile, k) if pricing.alpha == 0.0 else 0.0
    c = pricing.alpha / scale
    peak, slope_max = _slope_peak(model.packet_bits)
    if c >= slope_max:
        return 0.0
    gamma = gamma_star(model.packet_bits) if c == 0.0 else _slope_root(
        c, model.packet_bits, peak)
    v = min(model.power_cap, gamma / mu)
    return v if packet_throughput(mu * v, model) / v > pricing.alpha * v else 0.0


Responder = Callable[[NetworkModel, Sequence[float], int], float]


def priced_responder(pricing: PricingConfig) -> Responder:
    """Best-response selector for br_dynamics under a power surcharge."""
    return partial(best_response_priced, pricing=pricing)


_TERMINATIONS = ("converged", "cycle", "max_iter")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a best-response iteration.

    ``utilities`` are the plain energy efficiencies at the solution (also for
    surcharged runs: the surcharge shapes the equilibrium, the delivered b/J
    is still the performance metric).  ``trace`` holds every profile visited,
    starting with the initializer and ending at ``solution``.  ``termination``
    says why the iteration stopped: ``"converged"``, ``"cycle"`` (the last
    profile of the trace equals the one ``period`` >= 2 sweeps earlier, so the
    orbit repeats forever) or ``"max_iter"``; ``period`` is None unless it is
    a cycle.
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
    termination: str
    period: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.trace) != self.iterations + 1:
            raise ValueError("trace must hold iterations + 1 profiles")
        if not self.trace or self.trace[-1] != self.solution.powers:
            raise ValueError("trace must be non-empty and end at the solution")
        if self.converged and not self.residual <= self.tolerance:
            raise ValueError("converged report with residual above tolerance")
        if self.termination not in _TERMINATIONS:
            raise ValueError(f"termination must be one of {_TERMINATIONS}, "
                             f"got {self.termination!r}")
        if self.converged != (self.termination == "converged"):
            raise ValueError("converged must hold exactly when termination "
                             "is 'converged'")
        is_period = isinstance(self.period, int) and self.period >= 2
        if is_period != (self.termination == "cycle"):
            raise ValueError("period must be an int >= 2 exactly when termination "
                             "is 'cycle'")

    def to_dict(self) -> dict:
        return {
            "solution": list(self.solution.powers),
            "utilities": list(self.utilities),
            "normalized_utilities": list(self.normalized_utilities),
            "sinrs": list(self.sinrs),
            "iterations": self.iterations,
            "converged": self.converged,
            "termination": self.termination,
            "period": self.period,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "trace": [list(t) for t in self.trace],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        """Load ``to_dict`` output; reports written before ``termination``
        existed stopped either converged or at ``max_iter``."""
        converged = bool(data["converged"])
        return cls(
            solution=PowerProfile(tuple(data["solution"])),
            utilities=tuple(data["utilities"]),
            normalized_utilities=tuple(data["normalized_utilities"]),
            sinrs=tuple(data["sinrs"]),
            iterations=int(data["iterations"]),
            trace=tuple(tuple(t) for t in data["trace"]),
            converged=converged,
            residual=float(data["residual"]),
            tolerance=float(data["tolerance"]),
            termination=data.get("termination",
                                 "converged" if converged else "max_iter"),
            period=data.get("period"),
        )


def _report(model: NetworkModel, profile: tuple[float, ...],
            trace: list[tuple[float, ...]], residual: float, tol: float,
            termination: str, period: Optional[int] = None) -> SolveReport:
    utilities = tuple(ee_utility(model, profile, k) for k in range(model.num_players))
    return SolveReport(
        solution=PowerProfile(profile),
        utilities=utilities,
        normalized_utilities=tuple(u * model.utility_scale for u in utilities),
        sinrs=tuple(sinr(model, profile, k) for k in range(model.num_players)),
        iterations=len(trace) - 1,
        trace=tuple(trace),
        converged=termination == "converged",
        residual=residual,
        tolerance=tol,
        termination=termination,
        period=period,
    )


def br_dynamics(model: NetworkModel, responder: Optional[Responder] = None,
                init: Optional[Powers] = None, tol: float = 1e-10,
                max_iter: int = 10_000) -> SolveReport:
    """Synchronous best-response iteration to a fixed point.

    All players update simultaneously from the previous profile until the
    max-norm step and the residual, the next sweep's step, are both at most
    ``tol``.  ``responder`` must be a pure function of the profile, so a
    profile equal (==) to one p >= 2 sweeps earlier proves an orbit of period
    p that never settles: the run stops there, with the repeat last in the
    trace, since sweeping on could only change which point of the orbit is
    reported.  Otherwise a run that meets neither test within ``max_iter``
    sweeps ends in ``"max_iter"``, even if its last residual is within tol.
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
    seen = {current: 0}  # profile -> its latest index in the trace
    nxt = tuple(responder(model, current, k) for k in k_range)
    step = max(abs(a - b) for a, b in zip(nxt, current))
    for _ in range(max_iter):
        trace.append(nxt)
        current = nxt
        # the residual sweep is the next iterate if the loop goes on
        nxt = tuple(responder(model, current, k) for k in k_range)
        residual = max(abs(a - b) for a, b in zip(nxt, current))
        if step <= tol and residual <= tol:
            return _report(model, current, trace, residual, tol, "converged")
        n = len(trace) - 1
        period = n - seen.get(current, n)
        seen[current] = n
        if period >= 2:  # a repeat one sweep apart is a fixed point
            return _report(model, current, trace, residual, tol, "cycle", period)
        step = residual  # the next sweep's step, the same operands in the same order
    return _report(model, current, trace, residual, tol, "max_iter")


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
