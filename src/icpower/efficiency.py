"""Two-player efficiency analysis on the utility plane.

Samples the achievable utility region over [0, power_cap]^2, extracts the
Pareto frontier, maximizes weighted social welfare, and computes the Nash
bargaining solution over the improvement region of a disagreement point
(typically the noncooperative equilibrium).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .continuous import ee_utility
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
    "distance_to_frontier",
    "grid_csv_rows",
]


class UtilityPoint(NamedTuple):
    """A power profile with its utility pair, raw and in noise units."""

    profile: PowerProfile
    utilities: tuple[float, ...]
    normalized: tuple[float, ...]


@dataclass(frozen=True)
class Weights:
    """Convex welfare weights, one per player."""

    w: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.w)
        object.__setattr__(self, "w", vals)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be >= 0")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {sum(vals)})")
        if not all(map(math.isfinite, vals)):
            raise ValueError("weights must be finite")


class EmptyImprovementRegionError(ValueError):
    """No sampled profile weakly improves on the disagreement point."""


def utility_point(model: NetworkModel, profile: Powers) -> UtilityPoint:
    s = power_tuple(profile, model.num_players)
    utilities = tuple(ee_utility(model, s, k) for k in range(model.num_players))
    scale = model.noise_power / model.rate_scale
    return UtilityPoint(profile=PowerProfile(s), utilities=utilities,
                        normalized=tuple(u * scale for u in utilities))


def _require_two_players(model: NetworkModel) -> None:
    if model.num_players != 2:
        raise ValueError(
            f"utility-plane analysis supports exactly 2 players, got {model.num_players}"
        )


def _surfaces(model: NetworkModel, axis1: np.ndarray,
              axis2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized utility surfaces u1(s1, s2), u2(s1, s2) on axis1 x axis2."""
    powers, gammas = sinr_grid(model, axis1, axis2)
    out = []
    for own, gamma in zip(powers, gammas):
        tput = model.rate_scale * (-np.expm1(-gamma)) ** model.packet_bits
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(np.where(own > 0, tput / own, 0.0))
    return out[0], out[1]


@dataclass(frozen=True, eq=False)
class UtilityPlane(Sequence[UtilityPoint]):
    """Utility surfaces sampled on an n x n power grid.

    ``u1[i, j]`` and ``u2[i, j]`` are the players' utilities at the profile
    ``(axis[i], axis[j])``, and ``scale`` (noise_power / rate_scale) turns a
    utility into noise units.  As a sequence it holds the n^2 points in
    s1-major order, each built only when it is read.
    """

    axis: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    scale: float

    def __len__(self) -> int:
        return self.u1.size

    def __getitem__(self, index) -> UtilityPoint | list[UtilityPoint]:
        flat = range(len(self))[index]
        if isinstance(flat, range):
            return [self._point(k) for k in flat]
        return self._point(flat)

    def __iter__(self):
        axis = self.axis.tolist()
        for a, row1, row2 in zip(axis, self.u1.tolist(), self.u2.tolist()):
            for b, x, y in zip(axis, row1, row2):
                yield self._make(a, b, x, y)

    def _point(self, flat: int) -> UtilityPoint:
        i, j = divmod(flat, len(self.axis))
        return self._make(float(self.axis[i]), float(self.axis[j]),
                          float(self.u1[i, j]), float(self.u2[i, j]))

    def _make(self, a: float, b: float, x: float, y: float) -> UtilityPoint:
        return UtilityPoint(profile=PowerProfile((a, b)), utilities=(x, y),
                            normalized=(x * self.scale, y * self.scale))


def utility_grid(model: NetworkModel, n_per_axis: int = 400) -> UtilityPlane:
    """Sample [0, power_cap]^2 uniformly (endpoints included), s1-major order."""
    _require_two_players(model)
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be >= 2")
    axis = np.linspace(0.0, model.power_cap, n_per_axis)
    u1, u2 = _surfaces(model, axis, axis)
    return UtilityPlane(axis, u1, u2, model.noise_power / model.rate_scale)


def _frontier_indices(u1: np.ndarray, u2: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated points, sorted by u1 ascending.

    Sorting on (-u1, -u2, rank) puts each run of equal utility pairs in rank
    order.  A point is kept when its u2 strictly exceeds every u2 before it,
    which drops the dominated points and all but the first of each run.
    """
    order = np.lexsort((rank, -u2, -u1))
    u2_sorted = u2[order]
    best_before = np.empty_like(u2_sorted)
    best_before[0] = -np.inf
    np.maximum.accumulate(u2_sorted[:-1], out=best_before[1:])
    return order[u2_sorted > best_before][::-1]


def pareto_frontier(points: Sequence[UtilityPoint]) -> list[UtilityPoint]:
    """Non-dominated subset, sorted by u1 ascending (u2 then non-increasing).

    Dominance is weak-in-all, strict-in-some.  Points with identical utility
    pairs are collapsed to the one with the lexicographically smallest
    profile (the earliest of equal profiles).
    """
    if not points:
        raise ValueError("need at least one point")
    if isinstance(points, UtilityPlane):
        u1, u2 = points.u1.ravel(), points.u2.ravel()
        rank = np.arange(u1.size)  # s1-major order is profile order
    else:
        u = np.array([pt.utilities for pt in points], dtype=float)
        profiles = np.array([pt.profile.powers for pt in points], dtype=float)
        u1, u2 = u[:, 0], u[:, 1]
        rank = np.empty(len(u), dtype=np.intp)
        rank[np.lexsort(profiles.T[::-1])] = np.arange(len(u))
    return [points[k] for k in _frontier_indices(u1, u2, rank).tolist()]


_PATCH = np.linspace(-1.0, 1.0, 9)  # zoom patch offsets, in units of span


def _grid_then_refine(model: NetworkModel, n_per_axis: int, refine_tol: float,
                      score) -> UtilityPoint:
    """Best cell of ``score(u1, u2)`` on the utility plane, polished by a zoom.

    Each round scores a 9 x 9 patch within +/- span of the incumbent
    (clipped to [0, power_cap]) and moves to its best cell on a strict gain.
    The span starts at one grid step and shrinks by 4 each round, except
    after a move onto the patch's edge, until it is at most ``refine_tol``.
    A plane whose every cell scores -inf raises EmptyImprovementRegionError.
    """
    plane = utility_grid(model, n_per_axis)
    grid = score(plane.u1, plane.u2)
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    x, best = (plane.axis[i], plane.axis[j]), grid[i, j]
    if best == -np.inf:
        raise EmptyImprovementRegionError(
            "no sampled profile weakly improves on the disagreement utilities")
    span = float(plane.axis[1] - plane.axis[0])
    while span > refine_tol:
        axes = [np.unique(np.clip(v + span * _PATCH, 0.0, model.power_cap)) for v in x]
        patch = score(*_surfaces(model, *axes))
        i, j = np.unravel_index(int(np.argmax(patch)), patch.shape)
        if patch[i, j] > best:
            x, best = (axes[0][i], axes[1][j]), patch[i, j]
            if i in (0, len(axes[0]) - 1) or j in (0, len(axes[1]) - 1):
                continue
        span /= 4.0
    return utility_point(model, x)


def social_optimum(model: NetworkModel, weights: Weights, n_per_axis: int = 400,
                   refine_tol: float = 1e-10) -> UtilityPoint:
    """Maximize w1*u1 + w2*u2 over [0, power_cap]^2: grid scan, then a zoom
    on small patches around the best cell."""
    _require_two_players(model)
    if len(weights.w) != 2:
        raise ValueError(f"need 2 weights, got {len(weights.w)}")
    w1, w2 = weights.w
    return _grid_then_refine(model, n_per_axis, refine_tol,
                             lambda u1, u2: w1 * u1 + w2 * u2)


def in_improvement_region(candidate: UtilityPoint, baseline: UtilityPoint) -> bool:
    """Component-wise weak dominance of the baseline's utilities."""
    if len(candidate.utilities) != len(baseline.utilities):
        raise ValueError("utility vectors differ in length")
    return all(c >= b for c, b in zip(candidate.utilities, baseline.utilities))


def _bargain(model: NetworkModel, disagreement: UtilityPoint, n_per_axis: int,
             refine_tol: float, combine) -> UtilityPoint:
    """Maximize ``combine(g1, g2)`` of the nonnegative utility gains.

    Infeasible points score -inf, so the refinement never leaves the region.
    """
    _require_two_players(model)
    d1, d2 = disagreement.utilities

    def score(u1, u2):
        g1, g2 = u1 - d1, u2 - d2
        return np.where((g1 >= 0.0) & (g2 >= 0.0), combine(g1, g2), -np.inf)

    return _grid_then_refine(model, n_per_axis, refine_tol, score)


def nash_bargaining(model: NetworkModel, disagreement: UtilityPoint,
                    n_per_axis: int = 400, refine_tol: float = 1e-10) -> UtilityPoint:
    """Maximize the product of utility gains over the improvement region."""
    return _bargain(model, disagreement, n_per_axis, refine_tol,
                    lambda a, b: a * b)


def fairness_projection(model: NetworkModel, baseline: UtilityPoint,
                        n_per_axis: int = 400, refine_tol: float = 1e-10) -> UtilityPoint:
    """Equal-gain point: push both utilities up by the same amount until the
    frontier is reached (diagnostic; maximizes the smaller gain)."""
    return _bargain(model, baseline, n_per_axis, refine_tol, np.minimum)


def distance_to_frontier(point: UtilityPoint, frontier: Sequence[UtilityPoint]) -> float:
    """Euclidean distance, in normalized units, to the nearest frontier point."""
    if not frontier:
        raise ValueError("empty frontier")
    x, y = point.normalized
    return min(math.hypot(x - fx, y - fy) for fx, fy in (f.normalized for f in frontier))


def grid_csv_rows(plane: UtilityPlane,
                  frontier: Sequence[UtilityPoint]) -> tuple[list[str], list[str]]:
    """Header and body of the utility-plane CSV.

    The body holds one line per profile in s1-major order, as one text block
    of n newline-terminated lines per s1 value.  Each value is its float
    ``repr``, which is what ``csv.writer`` writes; ``on_frontier`` is 1 on
    the cells whose profile is in ``frontier``.
    """
    header = ["s1", "s2", "u1", "u2", "u1_norm", "u2_norm", "on_frontier"]
    axis = plane.axis
    n = len(axis)
    flags = ["0"] * (n * n)
    if frontier:
        s = np.array([f.profile.powers for f in frontier], dtype=float)
        idx = np.minimum(np.searchsorted(axis, s), n - 1)
        on_grid = (axis[idx] == s).all(axis=1)
        for k in (idx[:, 0] * n + idx[:, 1])[on_grid].tolist():
            flags[k] = "1"
    cols = (plane.u1, plane.u2, plane.u1 * plane.scale, plane.u2 * plane.scale)
    axis_text = [repr(a) for a in axis.tolist()]
    blocks = []
    for r, s1 in enumerate(axis_text):
        values = [map(repr, c[r].tolist()) for c in cols]
        lines = map(",".join, zip([s1] * n, axis_text, *values, flags[r * n:(r + 1) * n]))
        blocks.append("\n".join(lines) + "\n")
    return header, blocks
