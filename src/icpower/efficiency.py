"""Two-player efficiency analysis.

Samples the achievable utility region over [0, power_cap]^2 on a grid and
extracts that sample's Pareto frontier.  Maximizes weighted social welfare,
and computes the Nash bargaining solution and the equal-gain point over the
improvement region of a disagreement point (typically the noncooperative
equilibrium, ``nash_equilibrium``), by a search along the one-dimensional
pieces that hold the frontier itself: samples, then bracketed roots of each
score's derivative along a piece.  Only the sampled plane uses numpy,
imported where it is built, so the optimizers run without it.
"""
from __future__ import annotations

import math
import operator
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from .continuous import _newton, _utility, best_response_ee, gamma_star
from .network import (NetworkModel, PowerProfile, Powers, _Record, _sinr_per_watt,
                      _utility_bound, power_tuple)
from .numerics import illinois_root

if TYPE_CHECKING:
    import numpy as np

    from .config import Weights

__all__ = [
    "UtilityPoint",
    "UtilityPlane",
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


def utility_point(model: NetworkModel, profile: Powers) -> UtilityPoint:
    s = power_tuple(profile)
    utilities = (_utility(model, s, 0), _utility(model, s, 1))
    return UtilityPoint(profile=PowerProfile(s), utilities=utilities,
                        normalized=tuple(u * model.utility_scale for u in utilities))


def _surfaces(model: NetworkModel, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Utility surfaces u1(s1, s2), u2(s1, s2) on axis x axis, ``[i, j]`` at
    ``(axis[i], axis[j])``: the SINR arrays, from the powers as a column and a
    row vector, each turned into its utility in place.  numpy's overflow
    warning is silenced: an interference term that overflows to inf gives an
    SINR of 0, and an SINR that does gives a packet success of 1, the limits
    that Python's float arithmetic takes too, without a warning."""
    import numpy as np
    powers = (axis[:, None], axis[None, :])
    with np.errstate(over="ignore"):
        gammas = tuple(_sinr_per_watt(model, powers, k) * powers[k] for k in range(2))
        for own, u in zip(powers, gammas):
            np.negative(np.expm1(np.negative(u, out=u), out=u), out=u)  # 1 - exp(-gamma)
            u **= model.packet_bits
            u *= model.rate_scale
            u /= np.where(own > 0, own, np.inf)  # a silent player's +0.0 stays
    return gammas


class UtilityPlane(_Record):
    """Utility surfaces sampled on an n x n power grid.

    ``u1[i, j]`` and ``u2[i, j]`` are the players' utilities at the profile
    ``(axis[i], axis[j])`` of ``model``.  Flat cell k is ``(i, j) =
    divmod(k, n)``, so flat cells run in s1-major order.  Planes compare by
    identity: arrays have no single truth value to compare by.
    """

    __slots__ = ("axis", "u1", "u2", "model")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, axis: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                 model: NetworkModel) -> None:
        self._set(axis, u1, u2, model)

    def point(self, k: int) -> UtilityPoint:
        """The profile and utilities of flat cell k."""
        i, j = divmod(k, len(self.axis))
        x, y = float(self.u1[i, j]), float(self.u2[i, j])
        scale = self.model.utility_scale
        return UtilityPoint(profile=PowerProfile((float(self.axis[i]), float(self.axis[j]))),
                            utilities=(x, y), normalized=(x * scale, y * scale))


def utility_grid(model: NetworkModel, n_per_axis: int = 400) -> UtilityPlane:
    """Sample [0, power_cap]^2 uniformly (endpoints included), s1-major order."""
    import numpy as np
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


_SAMPLES = 48  # points on the sampling grid of each piece of the frontier
_STRIDE = 4  # every 4th sample is taken first, the rest only where they can matter
_PROBE = 2.0 ** -30  # after a silent start, its rate's sign is read at this share of a step


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


def _ratio_slope(gamma: float, bits: int) -> float:
    """-R'(gamma) * L * gamma^2 = e^gamma + L - 2 E(gamma) > 0, for gamma > 0."""
    x = math.expm1(gamma)
    return x + 1.0 + bits - 2.0 * x / gamma


def _elasticity(gamma: float, bits: int) -> float:
    """gamma * T'(gamma) / T(gamma) = L gamma / expm1(gamma), L at 0, in a
    form that cannot overflow."""
    return bits * gamma * math.exp(-gamma) / -math.expm1(-gamma) if gamma > 0.0 else float(bits)


def _channel(model: NetworkModel) -> tuple[float, Callable, list[float]]:
    """The channel ``(kappa, powers, beta)``, its constants computed once.
    ``powers(gamma)`` is the profile with SINRs gamma, s_k = (noise / (W *
    g_kk)) * gamma_k * (1 + beta_k * gamma_j) / (1 - kappa * gamma_1 *
    gamma_2), beta_k = g_kj / (W * g_jj) and kappa = beta_1 * beta_2, or None
    where its powers are not finite and nonnegative."""
    w, noise = model.processing_gain, model.noise_power
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
    return kappa, powers, beta


def nash_equilibrium(model: NetworkModel) -> UtilityPoint:
    """The unpriced game's equilibrium in closed form.  The best response
    min(power_cap, gamma_star / mu_k) is a standard interference function
    (Yates, 1995), so it is unique: both players at gamma_star, clipped to the
    cap, or one at the cap and the other best-responding.  Of these three the
    one with the smallest best-response residual wins, since next to the cap
    rounding can put the first on the wrong side."""
    cap, star = model.power_cap, gamma_star(model.packet_bits)
    both = _channel(model)[1]((star, star))
    candidates = [] if both is None else [tuple(min(v, cap) for v in both)]
    candidates += [(cap, best_response_ee(model, (cap, cap), 1)),
                   (best_response_ee(model, (cap, cap), 0), cap)]
    residual = lambda s: max(abs(best_response_ee(model, s, k) - s[k]) for k in range(2))
    return utility_point(model, min(candidates, key=residual))


def _pieces(model: NetworkModel) -> list[tuple]:
    """The one-dimensional pieces ``(lo, hi, k, at, slope)`` whose union, with
    the two lone best responses, holds the Pareto frontier of [0,
    power_cap]^2: ``at(t)`` is a profile, or None where its powers are not
    finite, and along t in [lo, hi] player k's utility rises and the other's
    falls.  ``slope(t)``, for t > 0, is (d log u1 / dt, d log u2 / dt) there.
    A curve point is solved once per t, whichever of the two asks first.

    With gamma_k = mu_k * s_k the utilities' gradients are antiparallel on the
    curve R(gamma_1) * R(gamma_2) = kappa of the model's ``_channel``, which
    also maps the curve's SINRs to powers.  Its half k runs gamma_k from 0 to
    R^-1(sqrt(kappa)), with the other SINR R^-1(kappa / R(gamma_k)), whose
    argument is at most sqrt(kappa), so kappa = 0 gives both branches
    gamma_j = gamma_star; the powers may leave the box.  There
    u_k = (t / c_k) F(gamma_k) D / (1 + beta_k gamma_j), with F = T / gamma
    and D = 1 - kappa gamma_1 gamma_2, and gamma_j' = -R'(gamma_k) R(gamma_j)
    / (R(gamma_k) R'(gamma_j)).  Then the cap edges: player j at power_cap
    and k from 0 to its best response, where only the SINRs move.
    """
    bits, cap = model.packet_bits, model.power_cap
    kappa, powers, beta = _channel(model)
    end = _ratio_inverse(math.sqrt(kappa), bits)  # the end both halves share

    def curve(k: int) -> tuple:
        solved = {}  # t: (profile, gamma_j, y), so that each t is solved once

        def solve(t: float) -> tuple:
            if t not in solved:
                r = _ratio(t, bits)  # <= 0 only by rounding next to gamma_star
                y = kappa / r if r > 0.0 else 0.0
                g = _ratio_inverse(y, bits)  # gamma_j = R^-1(kappa / R(gamma_k))
                solved[t] = powers((t, g) if k == 0 else (g, t)), g, y
            return solved[t]

        def slope(t: float) -> tuple[float, float]:
            _, g, y = solve(t)
            x = math.expm1(t)
            # d log gamma_j / dt, with -R'/R = ratio_slope / (gamma (L - E))
            dlog = 0.0 if y == 0.0 or g == 0.0 else (
                -_ratio_slope(t, bits) / (t * (bits - x / t)) * y * bits * g
                / _ratio_slope(g, bits))
            dd = -kappa * g * (1.0 + t * dlog) / (1.0 - kappa * t * g)  # d log D / dt
            bk, bj = beta[k], beta[1 - k]
            dk = (_elasticity(t, bits) - 1.0) / t + dd - bk * g * dlog / (1.0 + bk * g)
            dj = (_elasticity(g, bits) - 1.0) * dlog + dd - bj / (1.0 + bj * t)
            return (dk, dj) if k == 0 else (dj, dk)
        return 0.0, end, k, lambda t: solve(t)[0], slope

    def edge(k: int) -> tuple:
        j = 1 - k
        gain, mu = model.gains[j][k], _sinr_per_watt(model, (cap, cap), k)
        at = (lambda t: (t, cap)) if k == 0 else (lambda t: (cap, t))

        def slope(t: float) -> tuple[float, float]:
            dk = (_elasticity(mu * t, bits) - 1.0) / t
            dj = (-_elasticity(_sinr_per_watt(model, at(t), j) * cap, bits) * gain
                  / (model.noise_power + gain * t))
            return (dk, dj) if k == 0 else (dj, dk)
        return 0.0, best_response_ee(model, (cap, cap), k), k, at, slope

    return [curve(0), curve(1), edge(0), edge(1)]


def _search(model: NetworkModel, score: tuple, pieces: list,
            disagreement: Optional[UtilityPoint] = None) -> UtilityPoint:
    """The best point of a score over [0, power_cap]^2.  A score is
    ``(value, rate)``: ``value(u1, u2)``, nondecreasing in each utility, and
    ``rate(u1, u2, du1, du2)``, whose sign is that of the value's slope along
    a piece and whose root is its maximum there.  Both take the utilities,
    and their derivatives along the piece, in units of ``_unit``.

    The candidates are the disagreement profile, the two lone best responses
    and, on each of ``pieces`` (from ``_pieces``, which keep each curve point
    they solve, so that searches of one model share them), up to
    ``_SAMPLES`` evenly spaced points.  Along a piece one utility rises and
    the other falls, so nothing between two visited points beats the pair of
    their larger utilities, each raised by its rounding error, (L + 8) ulps
    (``beaten``); where that bound is below the best found, the stretch
    between is skipped: a whole piece, judged from its ends, or a stretch
    between two of every ``_STRIDE``-th sample, which are taken first.  Each
    sampled local maximum is refined by ``illinois_root`` on its rate,
    bracketed by its neighbouring samples where the rate changes sign there;
    at a piece's end, or next to a skipped stretch, the sign of the rate there
    says whether the maximum is inside.  A rate is never evaluated at t = 0 or
    where a piece has no profile: there the samples' order gives its sign.
    Each root iterate is scored like a sample, so a refinement
    cannot lose the sampled best.  A piece's start, where player k is silent,
    is never better than the other's lone best response, but a maximum may lie
    just after it: where the start is a sampled maximum, the rate at
    ``_PROBE`` of the first step, a point scored like an iterate, stands for
    the rate there, which has a finite limit at 0.  Given a disagreement
    point, a piece is first cut to its improvement interval, whose ends are
    roots, from values alone, of a utility minus the disagreement's, so that a
    narrow region still gets samples.  Every candidate is scored at its own
    powers, -inf outside the box, by ``continuous._utility``: ``ee_utility``'s
    floats without its checks, since the pieces' profiles and the lone best
    responses are finite and nonnegative as built, and ``_bargain`` checks
    the disagreement's.
    """
    cap, silent, unit = model.power_cap, (0.0, 0.0), _unit(model)
    slack = 1.0 + (model.packet_bits + 8) * math.ulp(1.0)  # q^L's rounding error
    value, rate = score
    best = -math.inf, silent

    def visit(s: Optional[tuple[float, float]]) -> tuple[Optional[tuple], float]:
        """The utilities at s in units, None where s is None, and the score there."""
        nonlocal best
        if s is None:
            return None, -math.inf
        u1, u2 = _utility(model, s, 0) * unit, _utility(model, s, 1) * unit
        if s[0] > cap or s[1] > cap:
            return (u1, u2), -math.inf
        v = value(u1, u2)
        if v > best[0]:
            best = v, s
        return (u1, u2), v

    def beaten(x: tuple, y: tuple) -> bool:
        """Whether nothing on a piece between two visited points can beat
        the best found: each utility is monotone along a piece, so it is at
        most its larger value at the two, up to its rounding error, and the
        score does not fall as a utility rises."""
        if x[0] is None or y[0] is None:
            return False
        ideal = max(x[0][0], y[0][0]) * slack, max(x[0][1], y[0][1]) * slack
        return value(*ideal) < best[0]

    def refine(a: int, b: int, at, slope, ts: list, seen: list, start: bool) -> None:
        """Refine the score between samples a < b of a piece, where it peaks;
        from a probe just after a, if ``start``: a silent start that peaks."""

        def rated(t: float, u: tuple[float, float]) -> float:
            d1, d2 = slope(t)
            return rate(*u, u[0] * d1, u[1] * d2)

        def f(t: float) -> float:
            u = visit(at(t))[0]
            return math.nan if u is None else rated(t, u)

        def known(m: int, sign: float) -> float:
            u = seen[m][0]
            return sign * math.inf if u is None or ts[m] == 0.0 else rated(ts[m], u)
        ta = ts[b] * _PROBE if start else ts[a]
        fa, fb = f(ta) if start else known(a, 1.0), known(b, -1.0)
        if fa > 0.0 > fb:  # at an end, the maximum is inside
            illinois_root(f, ta, ts[b], fa, fb)

    if disagreement is not None:
        visit(disagreement.profile.powers)
    visit((best_response_ee(model, silent, 0), 0.0))
    visit((0.0, best_response_ee(model, silent, 1)))
    for lo, hi, k, at, slope in pieces:
        if disagreement is not None:
            def excess(t: float, j: int) -> float:
                s = at(t)
                return -math.inf if s is None else (
                    _utility(model, s, j) - disagreement.utilities[j])
            rise, fall = partial(excess, j=k), partial(excess, j=1 - k)
            if (rise_hi := rise(hi)) < 0.0 or (fall_lo := fall(lo)) < 0.0:
                continue
            rise_lo, fall_hi = rise(lo), fall(hi)
            lo, hi = (lo if rise_lo >= 0.0 else illinois_root(rise, lo, hi, rise_lo, rise_hi),
                      hi if fall_hi >= 0.0 else illinois_root(fall, hi, lo, fall_hi, fall_lo))
        n = _SAMPLES if hi > lo else 1
        ends = visit(at(lo)), visit(at(hi))
        if n == 1 or beaten(*ends):
            continue
        ts = [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]
        seen = [ends[0]] + [None] * (n - 2) + [ends[1]]
        coarse = list(range(0, n - 1, _STRIDE)) + [n - 1]
        for m in coarse[1:-1]:
            seen[m] = visit(at(ts[m]))
        for p, q in zip(coarse, coarse[1:]):
            if not beaten(seen[p], seen[q]):
                seen[p + 1:q] = [visit(at(t)) for t in ts[p + 1:q]]
        for j in range(n):
            if seen[j] is None:
                continue
            a = j - 1 if j > 0 and seen[j - 1] else j
            b = j + 1 if j < n - 1 and seen[j + 1] else j
            v = seen[j][1]
            if (a < b and v > -math.inf and (a == j or v > seen[a][1])
                    and (b == j or v >= seen[b][1])):
                refine(a, b, at, slope, ts, seen, ts[j] == 0.0)
    return utility_point(model, best[1])


def _unit(model: NetworkModel) -> float:
    """The power of two just above both players' utility bounds, a normal
    float.  Scores see utilities in this unit: the product of two gains then
    cannot overflow, nor a derivative's products leave the normal range, and
    scaling by a power of two is exact, so the best point is the one the plain
    utilities pick wherever their products neither overflow nor underflow."""
    bound = max(_utility_bound(model, k) for k in range(2))
    return math.ldexp(1.0, -min(max(math.frexp(bound)[1], -1022), 1022))


def social_optimum(model: NetworkModel, weights: Weights) -> UtilityPoint:
    """Maximize w1*u1 + w2*u2 over [0, power_cap]^2 (see ``_search``)."""
    w1, w2 = weights.w
    return _search(model, (lambda u1, u2: w1 * u1 + w2 * u2,
                           lambda u1, u2, du1, du2: w1 * du1 + w2 * du2), _pieces(model))


def in_improvement_region(candidate: UtilityPoint, baseline: UtilityPoint) -> bool:
    """Component-wise weak dominance of the baseline's utilities."""
    if len(candidate.utilities) != len(baseline.utilities):
        raise ValueError("utility vectors differ in length")
    return all(c >= b for c, b in zip(candidate.utilities, baseline.utilities))


# The bargaining scores ``(combine, rate)`` of the gains g = u - d: the Nash
# product, whose rate is its slope g2 g1' + g1 g2', and min(g1, g2), whose
# rate (g2 - g1)(g1' - g2') is the slope of -(g1 - g2)^2 / 2.  Along a piece
# g_k rises and g_j falls, so that rate has the sign of g_j - g_k, which is
# monotone there, and its root is the top of min's kink.
_PRODUCT = (operator.mul, lambda g1, g2, dg1, dg2: g2 * dg1 + g1 * dg2)
_EQUAL_GAIN = (min, lambda g1, g2, dg1, dg2: (g2 - g1) * (dg1 - dg2))


def _bargain(model: NetworkModel, disagreement: UtilityPoint,
             kinds: list) -> list[UtilityPoint]:
    """Maximize each of ``kinds`` (``_PRODUCT``, ``_EQUAL_GAIN``) of the
    nonnegative utility gains, each by a search of its own, so that a point
    does not depend on the other kinds asked for with it; the searches share
    the pieces, and so each curve point that both visit is solved once.

    The disagreement point is its profile, which must lie in the box: d is
    the utilities there, whatever ``disagreement.utilities`` claims, so that
    profile scores combine(0, 0) and points outside the improvement region
    score -inf.  The gains are in ``_search``'s units, so g1 * g2 cannot
    overflow.
    """
    disagreement = utility_point(model, disagreement.profile)
    for i, s in enumerate(disagreement.profile.powers):
        if s > model.power_cap:
            raise ValueError(f"disagreement.profile[{i}] exceeds power_cap")
    d1, d2 = (d * _unit(model) for d in disagreement.utilities)

    def scorer(combine, rate):
        def value(u1, u2):
            g1, g2 = u1 - d1, u2 - d2
            return combine(g1, g2) if g1 >= 0.0 and g2 >= 0.0 else -math.inf
        return value, lambda u1, u2, du1, du2: rate(u1 - d1, u2 - d2, du1, du2)

    pieces = _pieces(model)
    return [_search(model, scorer(*kind), pieces, disagreement) for kind in kinds]


def nash_bargaining(model: NetworkModel, disagreement: UtilityPoint) -> UtilityPoint:
    """Maximize the product of utility gains over the improvement region."""
    return _bargain(model, disagreement, [_PRODUCT])[0]


def fairness_projection(model: NetworkModel, baseline: UtilityPoint) -> UtilityPoint:
    """Equal-gain point: push both utilities up by the same amount until the
    frontier is reached (diagnostic; maximizes the smaller gain)."""
    return _bargain(model, baseline, [_EQUAL_GAIN])[0]


def bargaining_points(model: NetworkModel,
                      disagreement: UtilityPoint) -> tuple[UtilityPoint, UtilityPoint]:
    """``nash_bargaining`` and ``fairness_projection``, from one check of the
    disagreement point."""
    return tuple(_bargain(model, disagreement, [_PRODUCT, _EQUAL_GAIN]))


def distance_to_frontier(point: UtilityPoint, frontier: Sequence[UtilityPoint]) -> float:
    """Euclidean distance, in normalized units, to the nearest frontier point."""
    if not frontier:
        raise ValueError("empty frontier")
    x, y = point.normalized
    return min(math.hypot(x - fx, y - fy) for fx, fy in (f.normalized for f in frontier))


def grid_csv_rows(plane: UtilityPlane, cells: Iterable[int]
                  ) -> tuple[list[str], list[str], list[tuple[str, ...]]]:
    """Header, body and frontier texts of the utility-plane CSV.

    The body holds one line per profile in s1-major order, as one text block
    of n newline-terminated lines per s1 value.  Each value is its float
    ``repr``, which is what ``csv.writer`` writes; ``on_frontier`` is 1 on
    the flat ``cells`` given (the frontier's).  Each utility is formatted
    once: at ``utility_scale == 1.0`` the ``u*_norm`` fields reuse the
    ``u*`` text, which is exact because ``x * 1.0 == x`` for every float.
    A block is one ``",".join`` over a flat list of its fields, in which a
    line's flag, the newline and the next line's s1 are one field.  The
    third item holds, for each of ``cells`` in order, the texts of its
    line's first six fields (s1, s2, u1, u2, u1_norm, u2_norm), so that
    another artifact of the same values need not format them again.
    """
    header = ["s1", "s2", "u1", "u2", "u1_norm", "u2_norm", "on_frontier"]
    axis = plane.axis
    n = len(axis)
    marked = [[] for _ in range(n)]  # per row: (column, place in cells)
    for p, k in enumerate(cells):
        i, j = divmod(k, n)
        marked[i].append((j, p))
    texts = [None] * sum(map(len, marked))
    columns = [plane.u1, plane.u2]
    scale = plane.model.utility_scale
    if scale != 1.0:
        columns += [u * scale for u in columns]
    axis_text = [repr(a) for a in axis.tolist()]
    fields = [None] * (6 * n + 1)  # s1, then s2, u1, u2, u1_norm, u2_norm, tail per line
    fields[1::6] = axis_text
    blocks = []
    for r, s1 in enumerate(axis_text):
        fields[0] = s1
        for c, u in enumerate(columns, 2):
            fields[c::6] = map(repr, u[r].tolist())
        if len(columns) == 2:
            fields[4::6], fields[5::6] = fields[2::6], fields[3::6]
        tails = ["0\n" + s1] * n
        for j, p in marked[r]:
            tails[j] = "1\n" + s1
            texts[p] = (s1, *fields[6 * j + 1:6 * j + 6])
        tails[-1] = tails[-1][:2]  # the block's last newline
        fields[6::6] = tails
        blocks.append(",".join(fields))
    return header, blocks, texts
