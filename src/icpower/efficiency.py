"""Two-player efficiency analysis on the utility plane.

Samples the achievable utility region over [0, power_cap]^2, extracts the
Pareto frontier, maximizes weighted social welfare, and computes the Nash
bargaining solution over the improvement region of a disagreement point
(typically the noncooperative equilibrium).  The optimizers scan the grid in
bands straight from the model; only the frontier needs the whole plane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import SolverOutcomeError, Weights
from .continuous import best_response_ee, ee_utility
from .network import NetworkModel, PowerProfile, Powers, power_tuple, sinr_grid

__all__ = [
    "UtilityPoint",
    "UtilityPlane",
    "Weights",
    "EmptyImprovementRegionError",
    "utility_point",
    "utility_grid",
    "pareto_frontier",
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
    """No sampled profile weakly improves on the disagreement point."""


def utility_point(model: NetworkModel, profile: Powers) -> UtilityPoint:
    s = power_tuple(profile, model.num_players)
    utilities = tuple(ee_utility(model, s, k) for k in range(model.num_players))
    return UtilityPoint(profile=PowerProfile(s), utilities=utilities,
                        normalized=tuple(u * model.utility_scale for u in utilities))


def _surfaces(model: NetworkModel, axis1: np.ndarray,
              axis2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Utility surfaces u1(s1, s2), u2(s1, s2) on axis1 x axis2, made in place."""
    powers, gammas = sinr_grid(model, axis1, axis2)
    for own, u in zip(powers, gammas):
        np.negative(np.expm1(np.negative(u, out=u), out=u), out=u)  # 1 - exp(-gamma)
        u **= model.packet_bits
        u *= model.rate_scale
        np.divide(u, own, out=u, where=own > 0)  # a silent player's +0.0 stays
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


def _check_grid(model: NetworkModel, n_per_axis: int) -> None:
    if model.num_players != 2:
        raise ValueError(
            f"utility-plane analysis supports exactly 2 players, got {model.num_players}"
        )
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be >= 2")


def utility_grid(model: NetworkModel, n_per_axis: int = 400) -> UtilityPlane:
    """Sample [0, power_cap]^2 uniformly (endpoints included), s1-major order."""
    _check_grid(model, n_per_axis)
    axis = np.linspace(0.0, model.power_cap, n_per_axis)
    u1, u2 = _surfaces(model, axis, axis)
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
    u1, u2 = plane.u1.ravel(), plane.u2.ravel()
    if not u1.size:
        raise ValueError("need at least one point")
    order = np.lexsort((-u2, -u1))
    u2_sorted = u2[order]
    best_before = np.concatenate(([-np.inf], np.maximum.accumulate(u2_sorted[:-1])))
    return order[u2_sorted > best_before][::-1]


_PATCH = np.linspace(-1.0, 1.0, 9).tolist()  # zoom patch offsets, in units of span
_BAND = 8192  # cells scored at once: 64 KiB per float temporary


def _scan(model: NetworkModel, axis1: np.ndarray, axis2: np.ndarray,
          scores: list) -> list[tuple[int, int, float]]:
    """Row, column and value of each score's first best cell in s1-major order
    on axis1 x axis2, the cell ``np.argmax`` would pick.  The surfaces are made
    and scored in row bands of about ``_BAND`` cells, never as a whole grid."""
    rows = max(1, _BAND // len(axis2))
    best = [(0, 0, -np.inf)] * len(scores)
    for r in range(0, len(axis1), rows):
        u1, u2 = _surfaces(model, axis1[r:r + rows], axis2)
        for s, score in enumerate(scores):
            band = score(u1, u2)
            i, j = divmod(int(np.argmax(band)), band.shape[1])
            if band[i, j] > best[s][2]:
                best[s] = (r + i, j, band[i, j])
    return best


def _grid_then_refine(model: NetworkModel, n_per_axis: int, refine_tol: float,
                      scores: list) -> list[UtilityPoint]:
    """The best point of each of ``scores(u1, u2)``: its best cell on the
    n x n grid, which one ``_scan`` finds for them all, polished by a zoom.

    Each round scores a 9 x 9 patch within +/- span of the incumbent
    (clipped to [0, power_cap]) and moves to its best cell on a strict gain.
    The span starts at one grid step and shrinks by 4 each round, except
    after a move onto the patch's edge, until it is at most ``refine_tol``.
    Then each player's lone best response is kept on a strict gain: where
    player j is silent u_j = 0, and every score here is nondecreasing in
    each utility, so that response is the best point with s_j = 0.  A score
    that is -inf on every cell raises EmptyImprovementRegionError.
    """
    _check_grid(model, n_per_axis)
    cap, silent = model.power_cap, (0.0, 0.0)
    axis = np.linspace(0.0, cap, n_per_axis)
    lone = [] if model.packet_bits == 1 else [  # L = 1 has no lone best response
        (best_response_ee(model, silent, 0), 0.0), (0.0, best_response_ee(model, silent, 1))]
    points = []
    for score, (i, j, best) in zip(scores, _scan(model, axis, axis, scores)):
        if best == -np.inf:
            raise EmptyImprovementRegionError(
                "no sampled profile weakly improves on the disagreement utilities")
        x = (float(axis[i]), float(axis[j]))
        span = float(axis[1] - axis[0])
        while span > refine_tol:
            axes = [sorted({min(max(v + span * p, 0.0), cap) for p in _PATCH}) for v in x]
            [(i, j, value)] = _scan(model, *map(np.array, axes), [score])
            if value > best:
                x, best = (axes[0][i], axes[1][j]), value
                if i in (0, len(axes[0]) - 1) or j in (0, len(axes[1]) - 1):
                    continue
            span /= 4.0
        for edge in lone:
            [(_, _, value)] = _scan(model, np.array(edge[:1]), np.array(edge[1:]), [score])
            if value > best:
                x, best = edge, value
        points.append(utility_point(model, x))
    return points


def social_optimum(model: NetworkModel, weights: Weights, n_per_axis: int = 400,
                   refine_tol: float = 1e-10) -> UtilityPoint:
    """Maximize w1*u1 + w2*u2 over [0, power_cap]^2: the best cell of the
    n x n grid, a zoom around it, then each player's lone best response."""
    if len(weights.w) != 2:
        raise ValueError(f"need 2 weights, got {len(weights.w)}")
    w1, w2 = weights.w
    return _grid_then_refine(model, n_per_axis, refine_tol,
                             [lambda u1, u2: w1 * u1 + w2 * u2])[0]


def in_improvement_region(candidate: UtilityPoint, baseline: UtilityPoint) -> bool:
    """Component-wise weak dominance of the baseline's utilities."""
    if len(candidate.utilities) != len(baseline.utilities):
        raise ValueError("utility vectors differ in length")
    return all(c >= b for c, b in zip(candidate.utilities, baseline.utilities))


def _bargain(model: NetworkModel, disagreement: UtilityPoint, n_per_axis: int,
             refine_tol: float, combines: list) -> list[UtilityPoint]:
    """Maximize each ``combine(g1, g2)`` of the nonnegative utility gains.

    Infeasible points score -inf, so the refinement never leaves the region.
    """
    d1, d2 = disagreement.utilities

    def scorer(combine):
        def score(u1, u2):
            g1, g2 = u1 - d1, u2 - d2
            return np.where((g1 >= 0.0) & (g2 >= 0.0), combine(g1, g2), -np.inf)
        return score

    return _grid_then_refine(model, n_per_axis, refine_tol, list(map(scorer, combines)))


def nash_bargaining(model: NetworkModel, disagreement: UtilityPoint,
                    n_per_axis: int = 400, refine_tol: float = 1e-10) -> UtilityPoint:
    """Maximize the product of utility gains over the improvement region."""
    return _bargain(model, disagreement, n_per_axis, refine_tol, [np.multiply])[0]


def fairness_projection(model: NetworkModel, baseline: UtilityPoint,
                        n_per_axis: int = 400, refine_tol: float = 1e-10) -> UtilityPoint:
    """Equal-gain point: push both utilities up by the same amount until the
    frontier is reached (diagnostic; maximizes the smaller gain)."""
    return _bargain(model, baseline, n_per_axis, refine_tol, [np.minimum])[0]


def bargaining_points(model: NetworkModel, disagreement: UtilityPoint, n_per_axis: int = 400,
                      refine_tol: float = 1e-10) -> tuple[UtilityPoint, UtilityPoint]:
    """``nash_bargaining`` and ``fairness_projection`` from one scan of the grid."""
    return tuple(_bargain(model, disagreement, n_per_axis, refine_tol,
                          [np.multiply, np.minimum]))


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
