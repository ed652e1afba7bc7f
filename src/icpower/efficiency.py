"""Two-player efficiency analysis.

Samples the achievable utility region over [0, power_cap]^2 on a grid and
extracts that sample's Pareto frontier.  Maximizes weighted social welfare,
and computes the Nash bargaining solution and the equal-gain point over the
improvement region of a disagreement point (typically the noncooperative
equilibrium, ``nash_equilibrium``), by a search along the one-dimensional
pieces that hold the frontier itself.  Only the sampled plane uses numpy,
imported where it is built, so the optimizers run without it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from .config import SolverOutcomeError, Weights
from .continuous import _newton, _utility, best_response_ee, gamma_star
from .network import (NetworkModel, PowerProfile, Powers, _utility_bound,
                      power_tuple, sinr_grid)
from .numerics import bisect_root, golden_section_max

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "UtilityPoint",
    "UtilityPlane",
    "EmptyImprovementRegionError",
    "utility_point",
    "utility_grid",
    "pareto_frontier",
    "nash_equilibrium",
    "social_optimum",
    "in_improvement_region",
    "nash_bargaining",
    "fairness_projection",
    "bargaining_points",
    "distance_to_frontier",
    "grid_csv_rows",
]


class UtilityPoint(NamedTuple):
    """A power profile with its utility pair, raw and in noise units."""

    profile: PowerProfile
    utilities: tuple[float, ...]
    normalized: tuple[float, ...]


class EmptyImprovementRegionError(SolverOutcomeError):
    """No profile in the box weakly improves on the disagreement point."""


def utility_point(model: NetworkModel, profile: Powers) -> UtilityPoint:
    s = power_tuple(profile, model.num_players)
    utilities = tuple(_utility(model, s, k) for k in range(model.num_players))
    return UtilityPoint(profile=PowerProfile(s), utilities=utilities,
                        normalized=tuple(u * model.utility_scale for u in utilities))


def _surfaces(model: NetworkModel, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Utility surfaces u1(s1, s2), u2(s1, s2) on axis x axis, made in place."""
    import numpy as np
    powers, gammas = sinr_grid(model, axis)
    for own, u in zip(powers, gammas):
        np.negative(np.expm1(np.negative(u, out=u), out=u), out=u)  # 1 - exp(-gamma)
        u **= model.packet_bits
        u *= model.rate_scale
        u /= np.where(own > 0, own, np.inf)  # a silent player's +0.0 stays
    return gammas


@dataclass(frozen=True, eq=False)
class UtilityPlane:
    """Utility surfaces sampled on an n x n power grid.

    ``u1[i, j]`` and ``u2[i, j]`` are the players' utilities at the profile
    ``(axis[i], axis[j])`` of ``model``.  Flat cell k is ``(i, j) =
    divmod(k, n)``, so flat cells run in s1-major order.
    """

    axis: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    model: NetworkModel

    def point(self, k: int) -> UtilityPoint:
        """The profile and utilities of flat cell k."""
        i, j = divmod(k, len(self.axis))
        x, y = float(self.u1[i, j]), float(self.u2[i, j])
        scale = self.model.utility_scale
        return UtilityPoint(profile=PowerProfile((float(self.axis[i]), float(self.axis[j]))),
                            utilities=(x, y), normalized=(x * scale, y * scale))


def _check_players(model: NetworkModel) -> None:
    if model.num_players != 2:
        raise ValueError(f"network: gains: the efficiency analysis supports exactly 2 "
                         f"players, got {model.num_players}")


def utility_grid(model: NetworkModel, n_per_axis: int = 400) -> UtilityPlane:
    """Sample [0, power_cap]^2 uniformly (endpoints included), s1-major order."""
    import numpy as np
    _check_players(model)
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be >= 2")
    axis = np.linspace(0.0, model.power_cap, n_per_axis)
    u1, u2 = _surfaces(model, axis)
    return UtilityPlane(axis, u1, u2, model)


def pareto_frontier(plane: UtilityPlane) -> np.ndarray:
    """Flat cells of the non-dominated profiles, sorted by u1 ascending (u2
    then non-increasing).

    Dominance is weak-in-all, strict-in-some.  Cells with identical utility
    pairs collapse to the first in s1-major order, the smallest profile.
    The stable sort on (-u1, -u2) keeps each run of equal pairs in cell
    order; a cell is kept when its u2 strictly exceeds every u2 before it,
    which drops the dominated cells and all but the first of each run.
    """
    import numpy as np
    u1, u2 = plane.u1.ravel(), plane.u2.ravel()
    if not u1.size:
        raise ValueError("need at least one point")
    order = np.lexsort((-u2, -u1))
    u2_sorted = u2[order]
    best_before = np.concatenate(([-np.inf], np.maximum.accumulate(u2_sorted[:-1])))
    return order[u2_sorted > best_before][::-1]


_SAMPLES = 48  # points sampled on each piece of the frontier
_WIDTH = 1e-13  # golden sections stop at this share of the sampled interval
_PROBE = 1e-6  # share of a piece between an end and the point that tests its slope


def _ratio(gamma: float, bits: int) -> float:
    """R = F'/T' = (L - expm1(gamma)/gamma) / (L gamma), with T = (1 -
    exp(-gamma))^L and F = T/gamma: it falls from +inf at 0 to 0 at gamma_star."""
    return math.inf if gamma == 0.0 else (bits - math.expm1(gamma) / gamma) / (bits * gamma)


def _ratio_inverse(y: float, bits: int) -> float:
    """The gamma in [0, gamma_star] where R = y: the root of L - E(gamma) =
    L y gamma, E(gamma) = expm1(gamma) / gamma, by Newton's method from
    gamma_star or from (L - 1) / (L y) >= R^-1(y), 0 where L y overflows."""
    star = gamma_star(bits)
    if not y > 0.0:
        return star
    ly = bits * y
    return _newton(bits, min(star, (bits - 1) / ly), lambda g, x: (ly * g, ly))


def _channel(model: NetworkModel) -> tuple[float, Callable, Callable]:
    """The 2-player channel ``(kappa, powers, utilities)``, its constants
    computed once.  ``powers(gamma)`` is the profile with SINRs gamma, s_k =
    (noise / (W * g_kk)) * gamma_k * (1 + beta_k * gamma_j) / (1 - kappa *
    gamma_1 * gamma_2), beta_k = g_kj / (W * g_jj) and kappa = beta_1 *
    beta_2, or None where its powers are not finite and nonnegative.
    ``utilities(s)`` is ``(ee_utility(model, s, 0), ee_utility(model, s, 1))``
    at finite powers s >= 0, unchecked, by the same operations in the same
    order: gamma_k = (W * g_kk) / (noise + g_kj * s_j) * s_k and u_k = t *
    (1 - exp(-gamma_k))^L / s_k, 0 where s_k = 0."""
    w, noise = model.processing_gain, model.noise_power
    rate, bits = model.rate_scale, model.packet_bits
    (g11, g12), (g21, g22) = model.gains
    w1, w2 = w * g11, w * g22
    watts = [noise / w1, noise / w2]
    beta = [g12 / w2, g21 / w1]
    kappa = beta[0] * beta[1] if beta[0] and beta[1] else 0.0

    def powers(gamma: tuple[float, float]) -> Optional[tuple[float, float]]:
        det = 1.0 - kappa * gamma[0] * gamma[1]
        if not det > 0.0:
            return None
        s0 = gamma[0] * (1.0 + beta[0] * gamma[1]) / det * watts[0]
        s1 = gamma[1] * (1.0 + beta[1] * gamma[0]) / det * watts[1]
        # one test catches negative, inf and the NaN of inf * 0
        return (s0, s1) if 0.0 <= s0 < math.inf and 0.0 <= s1 < math.inf else None

    def utilities(s: tuple[float, float]) -> tuple[float, float]:
        s1, s2 = s
        return (0.0 if s1 == 0.0 else
                rate * (-math.expm1(-(w1 / (noise + g12 * s2) * s1))) ** bits / s1,
                0.0 if s2 == 0.0 else
                rate * (-math.expm1(-(w2 / (noise + g21 * s1) * s2))) ** bits / s2)
    return kappa, powers, utilities


def nash_equilibrium(model: NetworkModel) -> UtilityPoint:
    """The unpriced game's equilibrium in closed form.  The best response
    min(power_cap, gamma_star / mu_k) is a standard interference function
    (Yates, 1995), so it is unique: both players at gamma_star, clipped to the
    cap, or one at the cap and the other best-responding.  Of these three the
    one with the smallest best-response residual wins, since next to the cap
    rounding can put the first on the wrong side."""
    _check_players(model)
    cap, star = model.power_cap, gamma_star(model.packet_bits)
    both = _channel(model)[1]((star, star))
    candidates = [] if both is None else [tuple(min(v, cap) for v in both)]
    candidates += [(cap, best_response_ee(model, (cap, cap), 1)),
                   (best_response_ee(model, (cap, cap), 0), cap)]
    residual = lambda s: max(abs(best_response_ee(model, s, k) - s[k]) for k in range(2))
    return utility_point(model, min(candidates, key=residual))


def _pieces(model: NetworkModel, channel: tuple) -> list[tuple]:
    """The one-dimensional pieces ``(lo, hi, k, at)`` whose union, with the
    two lone best responses, holds the Pareto frontier of [0, power_cap]^2:
    ``at(t)`` is a profile, or None where its powers are not finite, and
    along t in [lo, hi] player k's utility rises and the other's falls.

    With gamma_k = mu_k * s_k the utilities' gradients are antiparallel on the
    curve R(gamma_1) * R(gamma_2) = kappa of ``channel``, the model's
    ``_channel``, which also maps the curve's SINRs to powers.  Its half k
    runs gamma_k from 0 to R^-1(sqrt(kappa)), with the other SINR R^-1(kappa
    / R(gamma_k)), whose argument is at most sqrt(kappa), so kappa = 0 gives
    both branches gamma_j = gamma_star; the powers may leave the box.  Then
    the cap edges: player j at power_cap and k from 0 to its best response.
    """
    bits, cap = model.packet_bits, model.power_cap
    kappa, powers, _ = channel

    def curve(k: int) -> tuple:
        def at(t: float) -> Optional[tuple[float, float]]:
            r = _ratio(t, bits)  # <= 0 only by rounding next to gamma_star
            other = _ratio_inverse(kappa / r if r > 0.0 else 0.0, bits)
            return powers((t, other) if k == 0 else (other, t))
        return 0.0, _ratio_inverse(math.sqrt(kappa), bits), k, at

    def edge(k: int) -> tuple:
        return (0.0, best_response_ee(model, (cap, cap), k), k,
                lambda t: (t, cap) if k == 0 else (cap, t))

    return [curve(0), curve(1), edge(0), edge(1)]


def _search(model: NetworkModel, scores: list,
            disagreement: Optional[UtilityPoint] = None) -> list[UtilityPoint]:
    """The best point of each ``score(u1, u2)``, nondecreasing in each
    utility, over [0, power_cap]^2.

    The candidates are the disagreement profile, the two lone best responses
    and, on each piece of ``_pieces``, ``_SAMPLES`` evenly spaced points,
    each scored by every score, then a golden section for one score around
    each of its sampled local maxima.  A piece's start, where player k is
    silent, is never better than the other's lone best response.  Given a
    disagreement point, a piece is first cut to its improvement interval,
    whose ends are bisected where a utility reaches the disagreement's, so
    that a narrow region still gets samples.  Every candidate is scored at
    its own powers, -inf outside the box, by the ``utilities`` of one
    ``_channel`` built per search: ``ee_utility``'s floats without its
    checks, since the pieces' profiles and the lone best responses are finite
    and nonnegative as built, and the disagreement profile is checked once,
    here.  A score that is -inf at every candidate raises
    EmptyImprovementRegionError.
    """
    cap, silent = model.power_cap, (0.0, 0.0)
    channel = _channel(model)
    utilities = channel[2]
    best = [(-math.inf, silent)] * len(scores)
    every = range(len(scores))

    def visit(s: Optional[tuple[float, float]], which) -> list[float]:
        if s is None or max(s) > cap:
            return [-math.inf] * len(which)
        u = utilities(s)
        values = [scores[i](*u) for i in which]
        for i, v in zip(which, values):
            if v > best[i][0]:
                best[i] = (v, s)
        return values

    if disagreement is not None:
        visit(power_tuple(disagreement.profile.powers, 2), every)
    visit((best_response_ee(model, silent, 0), 0.0), every)
    visit((0.0, best_response_ee(model, silent, 1)), every)
    for lo, hi, k, at in _pieces(model, channel):
        if disagreement is not None:
            at = lru_cache(maxsize=None)(at)  # the cut's ends are bisected from and sampled

            def excess(t: float, j: int) -> float:
                s = at(t)
                return -math.inf if s is None else (
                    utilities(s)[j] - disagreement.utilities[j])
            rise, fall = partial(excess, j=k), partial(excess, j=1 - k)
            if rise(hi) < 0.0 or fall(lo) < 0.0:
                continue
            lo, hi = (lo if rise(lo) >= 0.0 else bisect_root(rise, lo, hi),
                      hi if fall(hi) >= 0.0 else bisect_root(fall, lo, hi))
        n = _SAMPLES if hi > lo else 1
        ts = [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]
        values = [visit(at(t), every) for t in ts]
        for i in every:
            v = [vals[i] for vals in values]
            f = lambda t: visit(at(t), (i,))[0]
            for j in range(n):
                if not (v[j] > -math.inf and (j == 0 or v[j] > v[j - 1])
                        and (j == n - 1 or v[j] >= v[j + 1])):
                    continue
                if j in (0, n - 1):  # the maximum is inside only if f rises inward
                    inward = (1.0 if j == 0 else -1.0) * _PROBE * (hi - lo)
                    if j == 0 and lo == 0.0 or not f(ts[j] + inward) > v[j]:
                        continue
                golden_section_max(f, ts[max(j - 1, 0)], ts[min(j + 1, n - 1)],
                                   _WIDTH * (hi - lo))
    if any(v == -math.inf for v, _ in best):
        raise EmptyImprovementRegionError(
            "no profile weakly improves on the disagreement utilities")
    return [utility_point(model, s) for _, s in best]


def social_optimum(model: NetworkModel, weights: Weights) -> UtilityPoint:
    """Maximize w1*u1 + w2*u2 over [0, power_cap]^2 (see ``_search``)."""
    _check_players(model)
    if len(weights.w) != 2:
        raise ValueError(f"need 2 weights, got {len(weights.w)}")
    w1, w2 = weights.w
    return _search(model, [lambda u1, u2: w1 * u1 + w2 * u2])[0]


def in_improvement_region(candidate: UtilityPoint, baseline: UtilityPoint) -> bool:
    """Component-wise weak dominance of the baseline's utilities."""
    if len(candidate.utilities) != len(baseline.utilities):
        raise ValueError("utility vectors differ in length")
    return all(c >= b for c, b in zip(candidate.utilities, baseline.utilities))


def _bargain(model: NetworkModel, disagreement: UtilityPoint,
             combines: list) -> list[UtilityPoint]:
    """Maximize each ``combine(g1, g2)`` of the nonnegative utility gains.

    Points outside the improvement region score -inf; the disagreement
    profile itself scores combine(0, 0).  The gains are scored in units of
    the power of two just above both players' utility bounds: g1 * g2 then
    cannot overflow, and scaling by a power of two is exact, so the best
    point is the one the plain gains pick wherever their product neither
    overflows nor underflows.
    """
    _check_players(model)
    d1, d2 = disagreement.utilities
    bound = max(_utility_bound(model, k) for k in range(2))
    unit = math.ldexp(1.0, -min(max(math.frexp(bound)[1], -1022), 1022))  # a normal float

    def scorer(combine):
        def score(u1, u2):
            g1, g2 = (u1 - d1) * unit, (u2 - d2) * unit
            return combine(g1, g2) if g1 >= 0.0 and g2 >= 0.0 else -math.inf
        return score

    return _search(model, list(map(scorer, combines)), disagreement)


def nash_bargaining(model: NetworkModel, disagreement: UtilityPoint) -> UtilityPoint:
    """Maximize the product of utility gains over the improvement region."""
    return _bargain(model, disagreement, [operator.mul])[0]


def fairness_projection(model: NetworkModel, baseline: UtilityPoint) -> UtilityPoint:
    """Equal-gain point: push both utilities up by the same amount until the
    frontier is reached (diagnostic; maximizes the smaller gain)."""
    return _bargain(model, baseline, [min])[0]


def bargaining_points(model: NetworkModel,
                      disagreement: UtilityPoint) -> tuple[UtilityPoint, UtilityPoint]:
    """``nash_bargaining`` and ``fairness_projection`` from one search."""
    return tuple(_bargain(model, disagreement, [operator.mul, min]))


def distance_to_frontier(point: UtilityPoint, frontier: Sequence[UtilityPoint]) -> float:
    """Euclidean distance, in normalized units, to the nearest frontier point."""
    if not frontier:
        raise ValueError("empty frontier")
    x, y = point.normalized
    return min(math.hypot(x - fx, y - fy) for fx, fy in (f.normalized for f in frontier))


def grid_csv_rows(plane: UtilityPlane, cells: Iterable[int]) -> tuple[list[str], list[str]]:
    """Header and body of the utility-plane CSV.

    The body holds one line per profile in s1-major order, as one text block
    of n newline-terminated lines per s1 value.  Each value is its float
    ``repr``, which is what ``csv.writer`` writes; ``on_frontier`` is 1 on
    the flat ``cells`` given (the frontier's).  Each utility is formatted
    once: at ``utility_scale == 1.0`` the ``u*_norm`` fields reuse the
    ``u*`` text, which is exact because ``x * 1.0 == x`` for every float.
    """
    header = ["s1", "s2", "u1", "u2", "u1_norm", "u2_norm", "on_frontier"]
    axis = plane.axis
    n = len(axis)
    flags = ["0"] * (n * n)
    for k in cells:
        flags[k] = "1"
    surfaces = (plane.u1, plane.u2)
    scale = plane.model.utility_scale
    scaled = None if scale == 1.0 else [u * scale for u in surfaces]
    axis_text = [repr(a) for a in axis.tolist()]
    blocks = []
    for r, s1 in enumerate(axis_text):
        text = [list(map(repr, u[r].tolist())) for u in surfaces]
        norm = text if scaled is None else [map(repr, u[r].tolist()) for u in scaled]
        lines = map(",".join, zip([s1] * n, axis_text, *text, *norm,
                                  flags[r * n:(r + 1) * n]))
        blocks.append("\n".join(lines) + "\n")
    return header, blocks
