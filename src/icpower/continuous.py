"""Continuous-power energy-efficiency game and its best-response solvers.

Each player transmits at any power in [0, power_cap] and values bits
correctly delivered per joule: u_k = throughput(sinr_k) / s_k.  The packet
success model makes a unique target SINR optimal, which yields a closed-form
best response and a fixed-point (Jacobi) iteration to the Nash equilibrium.
A linear power surcharge alpha * s_k steers that equilibrium toward the
Pareto frontier.  One Newton loop without a bracket finds the target SINR,
the surcharged best response and the inverse of the efficiency frontier's
ratio R.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .network import (NetworkModel, PowerProfile, Powers, _checked, _Record, _sinr_per_watt,
                      effective_gain, power_tuple, sinr)

if TYPE_CHECKING:
    from .config import PricingConfig

__all__ = [
    "SolveReport",
    "packet_throughput",
    "ee_utility",
    "priced_utility",
    "gamma_star",
    "best_response_ee",
    "best_response_priced",
    "priced_responder",
    "br_dynamics",
    "trace_csv_rows",
]


def packet_throughput(gamma: float, model: NetworkModel) -> float:
    """Effective throughput t * (1 - exp(-gamma))^L at a given SINR.

    Strictly increasing in gamma, 0 at gamma = 0, saturating at rate_scale.
    """
    if not gamma >= 0:  # NaN fails too
        raise ValueError("sinr must be >= 0")
    return _throughput(gamma, model)


def _throughput(gamma: float, model: NetworkModel) -> float:
    """``packet_throughput`` without the check, for a gamma known to be >= 0."""
    # -expm1(-g) = 1 - exp(-g) without cancellation for small g
    return model.rate_scale * (-math.expm1(-gamma)) ** model.packet_bits


def ee_utility(model: NetworkModel, profile: Powers, k: int) -> float:
    """Energy efficiency of player k: throughput per watt (b/J).

    Defined as 0 at s_k = 0, the continuous limit: for L >= 2 the throughput
    vanishes faster than the power.
    """
    return _utility(model, _checked(model, profile, k), k)


def _utility(model: NetworkModel, s: tuple[float, ...], k: int) -> float:
    """``ee_utility`` without the checks, the package's one utility kernel:
    ``s`` holds one finite power >= 0 per player and k is a player."""
    power = s[k]
    return 0.0 if power == 0.0 else _throughput(_sinr_per_watt(model, s, k) * power,
                                                model) / power


def priced_utility(model: NetworkModel, profile: Powers, k: int,
                   pricing: PricingConfig) -> float:
    """Energy efficiency minus the power surcharge; may be negative."""
    s = _checked(model, profile, k)
    return _utility(model, s, k) - pricing.alpha * s[k]


@lru_cache(maxsize=None)
def gamma_star(packet_bits: int) -> float:
    """The SINR at which marginal and average throughput-per-SINR coincide.

    Solves L * g * exp(-g) = 1 - exp(-g) for g > 0, the first-order condition
    of maximizing throughput(g)/g: L = E(g), ``_newton`` with P = 0, from
    2 ln L + 2, where E = (e^2 L^2 - 1) / (2 ln L + 2) >= L.  The root is
    unique for L >= 2; for L = 1 the efficiency is monotone decreasing and no
    positive root exists.
    """
    if not (isinstance(packet_bits, int) and packet_bits >= 2):
        raise ValueError("packet_bits must be an integer >= 2")
    return _newton(packet_bits, 2.0 * math.log(packet_bits) + 2.0, lambda g, x: (0.0, 0.0))


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


def _newton(bits: int, g: float,
            rest: Callable[[float, float], tuple[float, float]]) -> float:
    """The larger root of L - E(g) = P(g), E(g) = expm1(g) / g, by Newton's
    method from g, or 0.0 if the steps find none; ``rest(g, expm1(g))`` gives
    P(g) and P'(g).  E is convex and rises, so where P is convex the left side
    minus P is concave: from a start at or above the root each step falls
    toward it, and the first that does not ends the loop.  A slope >= 0, a
    step to 0 or below, or an infinite P means no root on that side."""
    while g > 0.0:
        x = math.expm1(g)
        e = x / g
        p, dp = rest(g, x)
        slope = (e - 1.0 - x) / g - dp  # -E'(g) - P'(g), E' = (exp(g) - E) / g
        if not (slope < 0.0 and p < math.inf):
            return 0.0
        nxt = g - (bits - e - p) / slope
        if nxt >= g:
            return g
        g = nxt
    return 0.0


def _price(g: float, x: float, c: float, bits: int) -> tuple[float, float]:
    """c k(g) and its derivative, k = g exp(g) / q^(L-1), q = 1 - exp(-g) and
    x = expm1(g): h = c exactly where L - E(g) = c k(g)."""
    power = (-math.expm1(-g)) ** (bits - 1)
    if power == 0.0:  # h underflows to 0 < c
        return math.inf, math.inf
    ck = c * g * (1.0 + x) / power
    return ck, ck * (1.0 / g + 1.0 - (bits - 1) / x)


def _priced_root(c: float, bits: int) -> float:
    """The root of h = c past h's peak, for c >= 0, or 0.0 if c >= max h."""
    return _newton(bits, gamma_star(bits), partial(_price, c=c, bits=bits))


def best_response_priced(model: NetworkModel, profile: Powers, k: int,
                         pricing: PricingConfig) -> float:
    """Player k's surcharged-utility maximizer over [0, power_cap].

    At alpha = 0 it is ``best_response_ee``.  Otherwise, at gamma = mu_k * s_k
    the utility is t * mu_k * [(1 - exp(-gamma))^L / gamma - c * gamma],
    c = alpha / (t * mu_k^2), whose one interior maximum solves h = c past
    h's peak, ``_priced_root``, where no root means silence.  Capped, it must
    beat silence.  Where t * mu_k^2 underflows to 0 the limit mu_k -> 0+
    holds: c -> inf prices every power out.
    """
    if pricing.alpha == 0.0:
        return best_response_ee(model, profile, k)
    mu = effective_gain(model, profile, k)
    scale = model.rate_scale * mu * mu
    if scale == 0.0:
        return 0.0
    c = pricing.alpha / scale
    v = min(model.power_cap, _priced_root(c, model.packet_bits) / mu)
    return v if v > 0.0 and packet_throughput(mu * v, model) / v > pricing.alpha * v else 0.0


Responder = Callable[[NetworkModel, Sequence[float], int], float]


def priced_responder(pricing: PricingConfig) -> Responder:
    """Best-response selector for br_dynamics under a power surcharge."""
    return partial(best_response_priced, pricing=pricing)


_TERMINATIONS = ("converged", "cycle", "max_iter")


class SolveReport(_Record):
    """Outcome of a best-response iteration.

    ``trace`` holds every profile visited, starting with the initializer and
    ending at the ``solution``, one profile more than the ``iterations``.
    ``utilities`` are the plain energy efficiencies at the solution (also for
    surcharged runs: the surcharge shapes the equilibrium, the delivered b/J
    is still the performance metric).  ``termination`` says why the iteration
    stopped: ``"converged"``, the one case where ``converged`` holds,
    ``"cycle"`` (the last profile of the trace equals the one ``period`` >= 2
    sweeps earlier, so the orbit repeats forever) or ``"max_iter"``;
    ``period`` is None unless it is a cycle.  ``solution``, ``iterations``
    and ``converged`` are derived, so each fact of a run is stored once.
    """

    __slots__ = ("trace", "utilities", "normalized_utilities", "sinrs", "residual",
                 "tolerance", "termination", "period")

    def __init__(self, trace: tuple[tuple[float, ...], ...], utilities: tuple[float, ...],
                 normalized_utilities: tuple[float, ...], sinrs: tuple[float, ...],
                 residual: float, tolerance: float, termination: str,
                 period: Optional[int] = None) -> None:
        self._set(trace, utilities, normalized_utilities, sinrs, residual, tolerance,
                  termination, period)
        if not self.trace:
            raise ValueError("trace must be non-empty")
        if self.termination not in _TERMINATIONS:
            raise ValueError(f"termination must be one of {_TERMINATIONS}, "
                             f"got {self.termination!r}")
        if self.converged and not self.residual <= self.tolerance:
            raise ValueError("converged report with residual above tolerance")
        is_period = isinstance(self.period, int) and self.period >= 2
        if is_period != (self.termination == "cycle"):
            raise ValueError("period must be an int >= 2 exactly when termination "
                             "is 'cycle'")

    @property
    def solution(self) -> PowerProfile:
        return PowerProfile(self.trace[-1])

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

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


def _report(model: NetworkModel, trace: list[tuple[float, ...]], residual: float,
            tol: float, termination: str, period: Optional[int] = None) -> SolveReport:
    profile = trace[-1]
    utilities = tuple(ee_utility(model, profile, k) for k in (0, 1))
    return SolveReport(
        trace=tuple(trace),
        utilities=utilities,
        normalized_utilities=tuple(u * model.utility_scale for u in utilities),
        sinrs=tuple(sinr(model, profile, k) for k in (0, 1)),
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
    current = (model.power_cap,) * 2 if init is None else power_tuple(init)
    trace = [current]
    seen = {current: 0}  # profile -> its latest index in the trace
    nxt = tuple(responder(model, current, k) for k in (0, 1))
    step = max(abs(a - b) for a, b in zip(nxt, current))
    for _ in range(max_iter):
        trace.append(nxt)
        current = nxt
        # the residual sweep is the next iterate if the loop goes on
        nxt = tuple(responder(model, current, k) for k in (0, 1))
        residual = max(abs(a - b) for a, b in zip(nxt, current))
        if step <= tol and residual <= tol:
            return _report(model, trace, residual, tol, "converged")
        n = len(trace) - 1
        period = n - seen.get(current, n)
        seen[current] = n
        if period >= 2:  # a repeat one sweep apart is a fixed point
            return _report(model, trace, residual, tol, "cycle", period)
        step = residual  # the next sweep's step, the same operands in the same order
    return _report(model, trace, residual, tol, "max_iter")


def trace_csv_rows(model: NetworkModel, report: SolveReport) -> tuple[list[str], list[list]]:
    """Header and rows for a per-iteration CSV of the dynamics trace."""
    header = ["iter", "s_1", "s_2", "u_1", "u_2", "gamma_1", "gamma_2"]
    rows = []
    for n, prof in enumerate(report.trace):  # each row checked once
        s = power_tuple(prof)
        rows.append([n, *prof, *(_utility(model, s, k) for k in (0, 1)),
                     *(_sinr_per_watt(model, s, k) * s[k] for k in (0, 1))])
    return header, rows
