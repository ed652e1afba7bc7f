"""Utility plane: grids, Pareto frontier, welfare optimum, bargaining."""
import builtins
import csv
import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from icpower import (PowerProfile, UtilityPlane, UtilityPoint, Weights, bargaining_points,
                     best_response_ee, br_dynamics, distance_to_frontier, ee_utility,
                     fairness_projection, gamma_star, in_improvement_region, nash_bargaining,
                     nash_equilibrium, pareto_frontier, social_optimum, utility_grid,
                     utility_point)
import icpower.continuous
import icpower.efficiency
import icpower.network
from icpower.efficiency import (_pieces, _ratio, _ratio_inverse, _surfaces,
                                grid_csv_rows)
from icpower.network import _sinr_per_watt, sinr

from bisection import bisect_root
from conftest import make_model


def brute_frontier(points):
    """Quadratic non-domination oracle with the same duplicate rule."""
    unique = {}
    for pt in points:
        held = unique.get(pt.utilities)
        if held is None or pt.profile.powers < held.profile.powers:
            unique[pt.utilities] = pt
    pts = list(unique.values())
    u = np.array([p.utilities for p in pts])
    keep = []
    for i, pt in enumerate(pts):
        dominated = ((u[:, 0] >= u[i, 0]) & (u[:, 1] >= u[i, 1])
                     & ((u[:, 0] > u[i, 0]) | (u[:, 1] > u[i, 1])))
        if not dominated.any():
            keep.append(pt)
    return sorted(keep, key=lambda p: p.utilities[0])


def reference_grid(model, n):
    """The utility plane as a list with one UtilityPoint per cell, s1-major,
    built cell by cell from the vectorized surfaces."""
    axis = np.linspace(0.0, model.power_cap, n)
    u1, u2 = _surfaces(model, axis)
    scale = model.noise_power / model.rate_scale
    points = []
    for i, a in enumerate(axis):
        for j, b in enumerate(axis):
            u = (float(u1[i, j]), float(u2[i, j]))
            points.append(UtilityPoint(profile=PowerProfile((float(a), float(b))),
                                       utilities=u,
                                       normalized=(u[0] * scale, u[1] * scale)))
    return points


random_models = st.builds(
    lambda d1, d2, c1, c2, bits, cap, noise, rate: make_model(
        gains=((d1, c1), (c2, d2)), packet_bits=bits, power_cap=cap,
        noise_power=noise, rate_scale=rate),
    st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.0, 1.0),
    st.floats(0.0, 1.0), st.integers(2, 60), st.floats(0.5, 10.0),
    st.floats(0.05, 3.0), st.floats(0.2, 5.0))


def two_by_two(direct, cross, **network):
    """A model with the given direct and cross gains."""
    return make_model(gains=((direct[0], cross[0]), (cross[1], direct[1])), **network)


pair = lambda lo, hi: st.tuples(st.floats(lo, hi), st.floats(lo, hi))
# Networks the frontier search must handle: bench-like draws; wide ones; a
# zero cross gain (kappa = 0); a cap far below the lone best responses, so
# the curve leaves the box and the equilibrium sits on the cap; and cross
# gains strong enough that kappa * gamma_star^2 >= 1.
frontier_models = st.one_of(
    st.builds(lambda d, c, bits, cap: two_by_two(d, c, packet_bits=bits, power_cap=cap),
              pair(0.5, 1.5), pair(0.1, 0.6), st.integers(10, 40), st.floats(3.0, 8.0)),
    st.builds(lambda d, c, bits, cap, noise, w, rate: two_by_two(
        d, c, packet_bits=bits, power_cap=cap, noise_power=noise, processing_gain=w,
        rate_scale=rate), pair(0.1, 2.0), pair(0.0, 1.2), st.integers(2, 60),
        st.floats(0.5, 8.0), st.floats(0.2, 3.0), st.floats(1.0, 8.0), st.floats(0.2, 5.0)),
    st.builds(lambda d, c, bits, k: two_by_two(d, (c, 0.0)[::k], packet_bits=bits),
              pair(0.5, 1.5), st.floats(0.1, 1.0), st.integers(2, 40), st.sampled_from([1, -1])),
    st.builds(lambda d, c, bits, cap: two_by_two(d, c, packet_bits=bits, power_cap=cap),
              pair(0.5, 1.5), pair(0.0, 0.6), st.integers(2, 40), st.floats(0.05, 1.0)),
    st.builds(lambda d, c, bits, w: two_by_two(d, c, packet_bits=bits, processing_gain=w),
              pair(0.1, 0.5), pair(0.8, 2.0), st.integers(2, 40), st.floats(1.0, 2.0)),
)

# improvement regions of one point, the equilibrium on the cap: in the first a
# search's interval-end root once stopped an ulp inside it, which the array
# path scored outside; in the second the array path puts the cap's gains an
# ulp above the scalar kernel's 0
ONE_POINT_REGION = two_by_two((0.5, 0.5), (0.5625, 0.25), packet_bits=3,
                              power_cap=0.5928105880945603)
CAP_EQUILIBRIUM = two_by_two((0.5, 0.5), (0.5, 0.5), packet_bits=2,
                             power_cap=0.26374851071378824)
# a weak player 1 whose welfare optimum lies just off the lone best response
# of player 2, between a curve's silent start and its first sample, which
# beats it: the search once took the start for the maximum
PEAK_AFTER_START = two_by_two((0.1, 1.5625), (0.0, 0.06640625), packet_bits=2,
                              processing_gain=4.25)
# gains so far apart that the curves' points overflow to no profile: the
# search must not judge a stretch of a piece from such a point
NO_PROFILE_CURVE = two_by_two((1e-300, 1.0), (1e300, 0.0), packet_bits=10, power_cap=2.0,
                              processing_gain=1.0)


def dense_patch(model, center, half):
    """u1, u2 on a 401 x 401 patch within +/- half of ``center``, clipped to
    [0, power_cap]^2, straight from the SINR-per-watt expression."""
    s = [np.clip(np.linspace(c - half, c + half, 401), 0.0, model.power_cap) for c in center]
    s = (s[0][:, None], s[1][None, :])
    out = []
    for k in range(2):
        gamma = _sinr_per_watt(model, s, k) * s[k]
        tput = model.rate_scale * (-np.expm1(-gamma)) ** model.packet_bits
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(np.where(s[k] > 0, tput / s[k], 0.0))
    return out


def all_points(plane):
    """Every cell of the plane as a UtilityPoint, s1-major."""
    return [plane.point(k) for k in range(plane.u1.size)]


def frontier_points(plane):
    return [plane.point(k) for k in pareto_frontier(plane).tolist()]


def synthetic_plane(u1, u2):
    """A plane holding the given n x n utility arrays on the axis 0..n-1."""
    u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    return UtilityPlane(np.arange(float(len(u1))), u1, u2, make_model())


class TestWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Weights((0.5, 0.6))

    def test_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            Weights((1.5, -0.5))

    def test_valid(self):
        assert Weights((0.3, 0.7)).w == (0.3, 0.7)


class TestUtilityGrid:
    def test_point_round_trip(self, ref_model):
        pt = utility_point(ref_model, (2.0, 1.0))
        assert pt.utilities == tuple(ee_utility(ref_model, (2.0, 1.0), k)
                                     for k in range(2))
        assert pt.normalized == pt.utilities  # unit noise, unit rate

    def test_two_by_two_corners(self, ref_model):
        plane = utility_grid(ref_model, 2)
        assert plane.u1.size == 4
        assert plane.point(0).profile.powers == (0.0, 0.0)
        assert plane.point(0).utilities == (0.0, 0.0)
        assert plane.point(3).profile.powers == (5.0, 5.0)

    def test_row_major_order(self, ref_model):
        plane = utility_grid(ref_model, 3)
        assert [plane.point(k).profile.powers for k in range(4)] == [
            (0.0, 0.0), (0.0, 2.5), (0.0, 5.0), (2.5, 0.0)]

    def test_matches_scalar_utilities(self, ref_model):
        for pt in all_points(utility_grid(ref_model, 7)):
            for k in range(2):
                assert pt.utilities[k] == pytest.approx(
                    ee_utility(ref_model, pt.profile.powers, k),
                    rel=1e-12, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(random_models, st.integers(2, 40))
    @example(make_model(), 400)
    def test_plane_is_the_sinr_per_watt_expression(self, model, n):
        # gamma_k = (W * g_kk / (noise + g_kj * s_j)) * s_k, bit for bit
        axis = np.linspace(0.0, model.power_cap, n)
        s1, s2 = np.meshgrid(axis, axis, indexing="ij")
        g = model.gains
        expected = []
        for k, (own, other) in enumerate(((s1, s2), (s2, s1))):
            mu = model.processing_gain * g[k][k] / (model.noise_power + g[k][1 - k] * other)
            tput = model.rate_scale * (-np.expm1(-(mu * own))) ** model.packet_bits
            with np.errstate(divide="ignore", invalid="ignore"):
                expected.append(np.where(own > 0, tput / own, 0.0))
        plane = utility_grid(model, n)
        assert np.array_equal(plane.u1, expected[0])
        assert np.array_equal(plane.u2, expected[1])

    @settings(max_examples=40, deadline=None)
    @given(random_models, st.integers(2, 25))
    @example(make_model(), 60)
    def test_scalar_path_matches_plane(self, model, n):
        # not bitwise: math.expm1 and np.expm1, and Python's and numpy's
        # integer powers, differ in the last bit on some inputs
        for pt in all_points(utility_grid(model, n)):
            assert utility_point(model, pt.profile).utilities == pytest.approx(
                pt.utilities, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("noise_power, rate_scale", [(1.0, 1.0), (0.4, 2.5)])
    def test_point_matches_reference_grid(self, noise_power, rate_scale):
        model = make_model(noise_power=noise_power, rate_scale=rate_scale)
        assert all_points(utility_grid(model, 7)) == reference_grid(model, 7)

    def test_resolution_validated(self, ref_model):
        with pytest.raises(ValueError, match="n_per_axis"):
            utility_grid(ref_model, 1)

    def test_two_players_only(self):
        # a model of any other size cannot be built, so the plane never sees one
        with pytest.raises(ValueError, match=r"^gains: need exactly 2 players, got 3$"):
            utility_grid(make_model(gains=((1.0, 0.1, 0.1), (0.1, 1.0, 0.1),
                                           (0.1, 0.1, 1.0))), 5)

    def test_single_user_bound(self, ref_model, grid_points):
        # nobody beats the best interference-free efficiency of their link
        g = gamma_star(ref_model.packet_bits)
        for k, u in enumerate((grid_points.u1, grid_points.u2)):
            mu = 4.0 * ref_model.gains[k][k]
            best = (ref_model.rate_scale * (1.0 - math.exp(-g)) ** ref_model.packet_bits
                    * mu / g)
            assert np.all(u <= best + 1e-9)


class TestParetoFrontier:
    def test_single_point(self):
        assert pareto_frontier(synthetic_plane([[1.0]], [[2.0]])).tolist() == [0]

    def test_dominated_point_dropped(self):
        plane = synthetic_plane([[1.0, 2.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, 1.0]])
        assert pareto_frontier(plane).tolist() == [1]

    def test_weak_domination_drops_equal_coordinate(self):
        # same u1, better u2 at cell 1
        plane = synthetic_plane([[1.0, 1.0], [1.0, 1.0]], [[2.0, 3.0], [2.0, 2.0]])
        assert pareto_frontier(plane).tolist() == [1]

    def test_duplicates_collapse_to_smallest_profile(self):
        twins = synthetic_plane([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
        assert pareto_frontier(twins).tolist() == [1]
        flat = synthetic_plane(np.ones((2, 2)), np.ones((2, 2)))
        assert pareto_frontier(flat).tolist() == [0]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            pareto_frontier(synthetic_plane(np.empty((0, 0)), np.empty((0, 0))))

    def test_sorted_and_monotone(self, frontier):
        u1 = [pt.utilities[0] for pt in frontier]
        u2 = [pt.utilities[1] for pt in frontier]
        assert all(a < b for a, b in zip(u1, u1[1:]))
        assert all(a >= b for a, b in zip(u2, u2[1:]))

    def test_matches_brute_force_on_coarse_grid(self, ref_model):
        plane = utility_grid(ref_model, 50)
        assert frontier_points(plane) == brute_frontier(all_points(plane))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[
        st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                 min_size=n, max_size=n)] * 2)))
    def test_matches_brute_force_on_random_clouds(self, arrays):
        plane = synthetic_plane(*arrays)
        assert frontier_points(plane) == brute_frontier(all_points(plane))

    @settings(max_examples=60, deadline=None)
    @given(random_models, st.integers(2, 30))
    def test_plane_matches_brute_force_on_random_models(self, model, n):
        # the s = 0 row and column tie at utility 0 for the silent player
        plane = utility_grid(model, n)
        assert frontier_points(plane) == brute_frontier(all_points(plane))


class TestSocialOptimum:
    def test_reference_values(self, so_point):
        assert so_point.profile.normalized(1.0) == pytest.approx((2.20, 1.55),
                                                                 abs=0.05)
        assert so_point.normalized == pytest.approx((0.278, 0.446), abs=0.005)

    def test_welfare_dominates_grid(self, so_point, grid_points):
        best_grid = np.max(0.5 * grid_points.u1 + 0.5 * grid_points.u2)
        so_welfare = 0.5 * so_point.utilities[0] + 0.5 * so_point.utilities[1]
        assert so_welfare >= best_grid

    def test_degenerate_weights_give_single_user_optimum(self, ref_model):
        so = social_optimum(ref_model, Weights((1.0, 0.0)))
        assert so.profile.powers[1] == 0.0
        expected_s1 = gamma_star(20) / (4.0 * 0.75)
        assert so.profile.powers[0] == pytest.approx(expected_s1, abs=1e-4)

    def test_symmetric_model_symmetric_optimum(self, symmetric_model):
        so = social_optimum(symmetric_model, Weights((0.5, 0.5)))
        s1, s2 = so.profile.powers
        assert abs(s1 - s2) <= 1e-5

    def test_lone_best_response_beats_a_coarse_grid_basin(self):
        # a zoom from the best cell of a 24-point grid ended at (0.1662,
        # 0.1547), welfare 3.8264; player 1 alone at its lone best response
        # has 3.8611
        model = make_model(gains=((1.25, 0.75), (0.375, 1.0)), noise_power=0.125,
                           power_cap=4.0, packet_bits=14)
        so = social_optimum(model, Weights((0.5, 0.5)))
        assert so.profile.powers == (best_response_ee(model, (0.0, 0.0), 0), 0.0)
        assert 0.5 * so.utilities[0] + 0.5 * so.utilities[1] >= 3.8611

    def test_weight_count_checked(self):
        # the weights are a pair by type, so social_optimum needs no check
        with pytest.raises(ValueError, match=r"^need 2, one per player, got 1$"):
            Weights((1.0,))


def ratio_root(y, bits):
    """The oracle for R^-1: bisection on log gamma of the computed R - y to a
    factor 1.001, then on gamma."""
    f = lambda g: _ratio(g, bits) - y
    lo, hi = math.log(1e-305), math.log(2.0 * gamma_star(bits))
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(math.exp(mid)) > 0.0 else (lo, mid)
    return bisect_root(f, math.exp(lo), math.exp(hi))


class TestRatioInverse:
    """R^-1 solves psi = L - E(gamma) - L y gamma = 0, E = expm1(gamma) / gamma,
    by Newton's method without a bracket, which needs psi concave and falling."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.0, 53.0), st.floats(-300.0, 300.0),
           st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=3, unique=True))
    def test_psi_is_concave_and_falls(self, log_bits, log_y, shares):
        bits, y = int(2.0 ** log_bits), 10.0 ** log_y
        a, b, c = sorted(u * gamma_star(bits) for u in shares)
        assume(bits * y * c < math.inf)
        psi = lambda g: bits - math.expm1(g) / g - bits * y * g
        tol = 8.0 * sys.float_info.epsilon * (bits + bits * y * c)  # rounding of a psi
        assert psi(a) >= psi(b) - tol and psi(b) >= psi(c) - tol
        w = (c - b) / (c - a)
        assert psi(b) >= w * psi(a) + (1.0 - w) * psi(c) - tol

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-300.0, 300.0), st.floats(1.0, 53.0))
    @example(300.0, 53.0)  # L y overflows
    @example(-300.0, 1.0)
    @example(300.0, 1.0)
    @example(-300.0, 53.0)
    def test_matches_bisection(self, log_y, log_bits):
        y, bits = 10.0 ** log_y, int(2.0 ** log_bits)
        got = _ratio_inverse(y, bits)
        if bits * y == math.inf:  # the start (L - 1) / (L y) is 0, the limit
            assert got == 0.0
            return
        want = ratio_root(y, bits)
        # within the band where rounding, about 2 eps / gamma in R, gives the
        # computed R - y several sign changes
        e = math.expm1(want) / want
        r = _ratio(want, bits)
        slope = ((math.exp(want) - e) / want / bits + r) / want  # -R'
        band = 4.0 * sys.float_info.epsilon * (2.0 / want + abs(r)) / slope
        assert abs(got - want) <= 1e-15 * want + band

    def test_limits(self):
        assert _ratio_inverse(0.0, 20) == gamma_star(20)
        assert _ratio_inverse(math.inf, 20) == 0.0
        assert _ratio_inverse(1e300, 2 ** 53) == 0.0


class TestZoom:
    """The frontier searches against a grid and against a dense local search
    around their result: the grid and the patch on the array path, the
    result as the search scored it, from the scalar kernel's utilities."""

    @staticmethod
    def check(plane, point, score):
        # the array path's utilities differ from the scalar kernel's by a few
        # ulps, either way, so they are lowered by 1e-12 relative before they
        # are scored; every score rises with each utility, and an ulp must not
        # lift a cell of a one-point improvement region above the result
        model, n = plane.model, len(plane.axis)
        got = float(score(*point.utilities))
        lowered = lambda u1, u2: score(u1 * (1 - 1e-12), u2 * (1 - 1e-12))
        grid = float(np.max(lowered(plane.u1, plane.u2)))
        assert got >= grid
        if grid <= 0.0:  # an improvement region the grid meets only at its edge is no basin
            return
        # a quarter grid step: close enough to stay in the result's basin
        half = 0.25 * model.power_cap / (n - 1)
        assert got >= float(np.max(lowered(*dense_patch(model, point.profile.powers, half))))

    @staticmethod
    def bargain(model, combine):
        """The equilibrium's utilities and ``combine`` of the gains over them,
        -inf off the improvement region."""
        disagreement = nash_equilibrium(model)
        d1, d2 = disagreement.utilities

        def score(u1, u2):
            g1, g2 = u1 - d1, u2 - d2
            return np.where((g1 >= 0) & (g2 >= 0), combine(g1, g2), -np.inf)
        return disagreement, score

    @settings(max_examples=60, deadline=None)
    @given(frontier_models, st.integers(20, 150))
    @example(PEAK_AFTER_START, 20)
    @example(NO_PROFILE_CURVE, 20)
    def test_social_optimum(self, model, n):
        point = social_optimum(model, Weights((0.5, 0.5)))
        self.check(utility_grid(model, n), point, lambda u1, u2: 0.5 * u1 + 0.5 * u2)

    @settings(max_examples=60, deadline=None)
    @given(frontier_models, st.integers(20, 150))
    @example(ONE_POINT_REGION, 20)
    @example(CAP_EQUILIBRIUM, 20)
    def test_nash_bargaining(self, model, n):
        disagreement, score = self.bargain(model, np.multiply)
        self.check(utility_grid(model, n), nash_bargaining(model, disagreement), score)

    @settings(max_examples=60, deadline=None)
    @given(frontier_models, st.integers(20, 150))
    @example(ONE_POINT_REGION, 20)
    @example(CAP_EQUILIBRIUM, 20)
    def test_fairness_projection(self, model, n):
        disagreement, score = self.bargain(model, np.minimum)
        self.check(utility_grid(model, n), fairness_projection(model, disagreement), score)

    @settings(max_examples=30, deadline=None)
    @given(frontier_models, st.integers(10, 40))
    def test_union_holds_the_plane_frontier(self, model, n):
        # for each frontier cell (x, y), each piece's point where u1 first
        # reaches x, or a lone best response, is in the box with u2 >= y;
        # within 1e-12, as the cells' array utilities round differently
        pieces = _pieces(model)
        lone = [(best_response_ee(model, (0.0, 0.0), 0), 0.0),
                (0.0, best_response_ee(model, (0.0, 0.0), 1))]
        u = lambda s, k: ee_utility(model, s, k)
        for cell in frontier_points(utility_grid(model, n)):
            x, y = cell.utilities
            x -= 1e-12 * x
            best = max((u(s, 1) for s in lone if u(s, 0) >= x), default=-math.inf)
            for lo, hi, k, at, _ in pieces:
                def reaches(t):
                    s = at(t)
                    return s is not None and u(s, 0) >= x
                # u1 rises with t where k = 0, and falls where k = 1
                good, bad = (hi, lo) if k == 0 else (lo, hi)
                if not reaches(good):
                    continue
                if reaches(bad):
                    good = bad
                while abs(good - bad) > 1e-15 * (hi - lo):
                    mid = 0.5 * (good + bad)
                    good, bad = (mid, bad) if reaches(mid) else (good, mid)
                if max(at(good)) <= model.power_cap:
                    best = max(best, u(at(good), 1))
            assert best >= y - 1e-12 * abs(y), (cell, best)

    @settings(max_examples=40, deadline=None)
    @given(frontier_models)
    def test_curve_trades_one_utility_for_the_other(self, model):
        # along the curve, from (0, BR2(0)) to (BR1(0), 0), u1 rises and u2
        # falls; the powers need not be monotone, and the box may cut the
        # curve more than once
        (_, hi, _, first, _), (_, _, _, second, _) = _pieces(model)[:2]
        ts = [hi * i / 400 for i in range(401)]
        path = [first(t) for t in ts] + [second(t) for t in reversed(ts)]
        assume(all(s is not None for s in path))
        u = [(ee_utility(model, s, 0), ee_utility(model, s, 1)) for s in path]
        top = [max(v[k] for v in u) for k in range(2)]
        for a, b in zip(u, u[1:]):
            assert b[0] >= a[0] - 1e-12 * top[0]
            assert b[1] <= a[1] + 1e-12 * top[1]

    @staticmethod
    def gains_over_ne(model, point_of):
        ne = nash_equilibrium(model)
        point = point_of(model, ne)
        return [u - d for u, d in zip(point.utilities, ne.utilities)]

    def test_bargaining_travels_past_the_golden_section_result(self):
        # coordinate-wise golden section ended at a product of 2.06606e-6
        model = make_model(gains=((0.7201, 0.5979), (0.6154, 1.126)),
                           noise_power=2.9403, power_cap=9.2177, packet_bits=35)
        g1, g2 = self.gains_over_ne(model, nash_bargaining)
        assert g1 * g2 >= 2.0675e-6

    def test_equal_gain_climbs_the_min_ridge(self):
        # coordinate-wise golden section stalled at a smaller gain of 0.003332
        model = make_model(gains=((1.4391, 0.2825), (0.3128, 0.9589)),
                           noise_power=1.5471, power_cap=9.9422, packet_bits=2)
        assert min(self.gains_over_ne(model, fairness_projection)) >= 0.0048

    def test_equal_gain_reaches_the_top_of_its_ridge(self):
        # a 2-D zoom stopped on the min(g1, g2) ridge at 0.0123977
        model = make_model(gains=((0.369, 1.006), (0.480, 0.353)), processing_gain=7.75,
                           power_cap=4.35, packet_bits=16)
        assert min(self.gains_over_ne(model, fairness_projection)) >= 0.01254


class TestPieceSlopes:
    """Each piece's d log u_k / dt against a central difference of log u_k,
    extrapolated from steps h and h / 2 (Richardson), which the test computes
    from the piece's profiles with log1p, so that it keeps its digits at any
    L: u_k = t (1 - exp(-gamma_k))^L / s_k."""

    @staticmethod
    def log_utilities(model, s):
        (g11, g12), (g21, g22) = model.gains
        logs = []
        for k, (own, cross) in enumerate(((g11, g12), (g22, g21))):
            gamma = model.processing_gain * own * s[k] / (model.noise_power + cross * s[1 - k])
            logs.append(math.log(model.rate_scale) - math.log(s[k])
                        + model.packet_bits * math.log1p(-math.exp(-gamma)))
        return logs

    @settings(max_examples=300, deadline=None)
    @given(pair(0.2, 2.0), st.tuples(*[st.just(0.0) | st.floats(0.01, 1.0)] * 2),
           st.integers(2, 60) | st.integers(2, 2 ** 53), st.floats(0.01, 100.0),
           st.floats(0.01, 100.0), st.floats(1.0, 8.0), st.floats(0.5, 8.0),
           st.integers(0, 3), st.floats(0.05, 0.95))
    @example((1.0, 1.0), (0.5, 0.5), 2 ** 53, 1.0, 1.0, 4.0, 5.0, 0, 0.5)
    @example((1.0, 1.0), (0.0, 0.5), 20, 0.3, 3.0, 4.0, 5.0, 1, 0.5)  # kappa = 0
    def test_slopes_match_a_central_difference(self, direct, cross, bits, noise, rate, w,
                                               cap, piece, share):
        model = two_by_two(direct, cross, packet_bits=bits, noise_power=noise,
                           rate_scale=rate, processing_gain=w, power_cap=cap)
        lo, hi, _, at, slope = _pieces(model)[piece]
        t = lo + share * (hi - lo)
        h = 2e-5 * (hi - lo)
        ends = [at(t + d) for d in (-h, h, -0.5 * h, 0.5 * h)]
        assume(all(s is not None and min(s) > 0.0 for s in ends))
        logs = [self.log_utilities(model, s) for s in ends]
        for k, got in enumerate(slope(t)):
            wide, narrow = (logs[1][k] - logs[0][k]) / (2.0 * h), (logs[3][k] - logs[2][k]) / h
            want = (4.0 * narrow - wide) / 3.0
            # truncation, about h^4 of the fifth derivative, and the rounding of log u
            tol = 1e-8 * abs(want) + 1e-12 * (1.0 + abs(logs[1][k])) / h
            assert abs(got - want) <= tol, (k, got, want)


def traced_peak(fn, *args):
    """Peak bytes that fn(*args) holds at once, its result included."""
    fn(*args)  # first calls may import or cache
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBandedSearch:
    """Only the plane holds whole surfaces; the searches hold none."""

    def test_plane_holds_no_more_than_its_surfaces(self, ref_model):
        surfaces = 2 * 400 * 400 * 8
        assert traced_peak(utility_grid, ref_model, 400) <= 1.1 * surfaces

    @pytest.mark.parametrize("search", ["social", "nbs", "fairness", "both"])
    def test_search_allocates_under_half_a_surface(self, ref_model, ne_point, search):
        # the whole search at n = 400, the scan of the grid included
        run = {"social": lambda: social_optimum(ref_model, Weights((0.5, 0.5))),
               "nbs": lambda: nash_bargaining(ref_model, ne_point),
               "fairness": lambda: fairness_projection(ref_model, ne_point),
               "both": lambda: bargaining_points(ref_model, ne_point)}[search]
        assert traced_peak(run) < 0.5 * 400 * 400 * 8

    @pytest.mark.parametrize("samples", [1, 100, 8192])
    def test_grid_of_infeasible_bands_raises(self, ref_model, monkeypatch, samples):
        # disagreement utilities no profile reaches, claimed at a profile in
        # the box: the search scores from the profile's own utilities, at any
        # number of samples on each piece of the frontier
        profile = PowerProfile((0.0, 0.0))
        claimed = UtilityPoint(profile, (10.0, 10.0), (10.0, 10.0))
        monkeypatch.setattr(icpower.efficiency, "_SAMPLES", samples)
        for search in (nash_bargaining, fairness_projection, bargaining_points):
            assert search(ref_model, claimed) == search(ref_model,
                                                        utility_point(ref_model, profile))

    def test_no_curve_point_is_evaluated_twice(self, ref_model, ne_point, nbs_point,
                                               monkeypatch):
        # the improvement-interval cut tests each end, hands it to a root
        # finder and samples it, and a refinement takes each iterate's slope;
        # each of these once solved the end's point again
        calls, asked = [], [None]
        pieces, inverse = _pieces, icpower.efficiency._ratio_inverse

        def solved(*args):
            calls.append(asked[0])
            return inverse(*args)

        def counted(model):
            def tag(i, f):
                def tagged(t):
                    asked[0] = i, t
                    return f(t)
                return tagged
            return [(lo, hi, k, tag(i, at), tag(i, slope))
                    for i, (lo, hi, k, at, slope) in enumerate(pieces(model))]

        monkeypatch.setattr(icpower.efficiency, "_ratio_inverse", solved)
        monkeypatch.setattr(icpower.efficiency, "_pieces", counted)
        assert nash_bargaining(ref_model, ne_point) == nbs_point
        assert calls.count(None) == 1  # the end both curves share, solved once
        calls = [c for c in calls if c is not None]
        assert calls and len(set(calls)) == len(calls)

    @settings(max_examples=60, deadline=None)
    @given(random_models)
    @example(make_model())
    def test_both_bargaining_points_match_their_own_searches(self, model):
        # nbs --fairness must report the point that nbs alone reports
        ne = nash_equilibrium(model)
        assert bargaining_points(model, ne) == (nash_bargaining(model, ne),
                                                fairness_projection(model, ne))


class TestCheckedOnce:
    """The searches check profiles at their boundary and score every candidate
    with the unchecked ``continuous._utility``, so the number of profile checks
    is a small constant: the best responses that set the equilibrium and the
    pieces' ends."""

    def test_checks_do_not_grow_with_the_samples(self, ref_model, monkeypatch):
        checked, calls = icpower.network._checked, []

        def counted(*args):
            calls.append(args)
            return checked(*args)
        for module in (icpower.network, icpower.continuous, icpower.efficiency):
            if getattr(module, "_checked", None) is checked:  # each module that imported it
                monkeypatch.setattr(module, "_checked", counted)
        counts = []
        for samples in (48, 96, 192):
            monkeypatch.setattr(icpower.efficiency, "_SAMPLES", samples)
            calls.clear()
            social_optimum(ref_model, Weights((0.5, 0.5)))
            bargaining_points(ref_model, nash_equilibrium(ref_model))
            counts.append(len(calls))
        assert 0 < counts[0] <= 20 and len(set(counts)) == 1, counts


class TestRootCounts:
    """Each refinement of a sampled maximum, and each end of an improvement
    interval, solves R^-1 for a small constant number of curve points: a
    bracketed root stops where floats or rounding do, where a golden section
    took about 58 points and a bisection about 52.  Every routine the search
    takes from ``numerics`` is counted; a run over a whole piece is an
    interval end, the others are refinements."""

    @staticmethod
    def curve_points_per_run(monkeypatch, search):
        solves, runs, pieces = [0], [], []
        inverse, make_pieces = icpower.efficiency._ratio_inverse, icpower.efficiency._pieces

        def counted_inverse(*args):
            solves[0] += 1
            return inverse(*args)

        def recorded_pieces(*args):
            made = make_pieces(*args)
            pieces.extend({piece[0], piece[1]} for piece in made)
            return made

        def counted(finder):
            def run(f, a, b, *rest):
                before = solves[0]
                result = finder(f, a, b, *rest)
                runs.append(("end" if {a, b} in pieces else "refine", solves[0] - before))
                return result
            return run
        monkeypatch.setattr(icpower.efficiency, "_ratio_inverse", counted_inverse)
        monkeypatch.setattr(icpower.efficiency, "_pieces", recorded_pieces)
        for name, obj in list(vars(icpower.efficiency).items()):
            if getattr(obj, "__module__", None) == "icpower.numerics":
                monkeypatch.setattr(icpower.efficiency, name, counted(obj))
        search()
        return ([n for kind, n in runs if kind == "refine"],
                [n for kind, n in runs if kind == "end"])

    def test_social_optimum(self, ref_model, monkeypatch):
        refine, ends = self.curve_points_per_run(
            monkeypatch, lambda: social_optimum(ref_model, Weights((0.5, 0.5))))
        assert not ends and refine and 0 < max(refine) <= 14, refine

    def test_bargaining_points(self, ref_model, ne_point, monkeypatch):
        refine, ends = self.curve_points_per_run(
            monkeypatch, lambda: bargaining_points(ref_model, ne_point))
        assert refine and 0 < max(refine) <= 14, refine
        assert ends and 0 < max(ends) <= 16, ends


class TestNashEquilibrium:
    """The closed-form unpriced equilibrium against the best responses and
    the dynamics, on wide networks, a third of them with one cross gain 0."""

    @settings(max_examples=300, deadline=None)
    @given(pair(0.2, 1.5), pair(0.0, 1.5), st.sampled_from([None, 0, 1]),
           st.floats(0.01, 3.0), st.floats(1.0, 8.0), st.floats(0.5, 10.0),
           st.integers(2, 60))
    # knife edges: the cap 1 ulp below the larger power at gamma_star, where
    # taking that profile if it fits, else (P, BR2(P)) unless player 1 would
    # leave the cap, misses the equilibrium by 0.83, 0.69 and 0.95 P
    @example((0.2637, 0.9752), (1.2939, 0.1079), None, 0.0524, 6.0489,
             0.7767482556968979, 49)
    @example((0.3142, 1.3188), (0.0, 0.1743), 0, 1.2172, 6.8238, 1.9722488996246348, 9)
    @example((0.2204, 1.2153), (1.4423, 0.0), 1, 0.1901, 2.8921, 5.926350516378703, 59)
    # det <= 0: kappa * gamma_star^2 = 2, so the equilibrium is (BR1(P), P)
    @example((1.0, 0.2), (0.111, 0.177), None, 0.01, 1.0, 5.0, 20)
    def test_mutual_best_response_and_limit_of_the_dynamics(self, direct, cross, zero,
                                                           noise, w, cap, bits):
        if zero is not None:
            cross = (0.0, cross[1]) if zero == 0 else (cross[0], 0.0)
        model = two_by_two(direct, cross, noise_power=noise, processing_gain=w,
                           power_cap=cap, packet_bits=bits)
        ne = nash_equilibrium(model)
        s = ne.profile.powers
        assert all(0.0 <= v <= cap for v in s)
        for k in range(2):
            assert abs(best_response_ee(model, s, k) - s[k]) <= 1e-12 * cap
        assert ne == utility_point(model, s)
        # a step tolerance relative to the cap: at the default 1e-10, a
        # contraction near 1 stops the sweeps up to ~1e-9 P short of the limit
        report = br_dynamics(model, tol=1e-13 * cap)
        if report.converged:
            assert max(abs(a - b) for a, b in zip(s, report.solution.powers)) <= 1e-9 * cap

    def test_interior_equilibrium_is_at_gamma_star(self, ref_model, ne_report):
        ne = nash_equilibrium(ref_model)
        star = gamma_star(ref_model.packet_bits)
        for k in range(2):
            assert sinr(ref_model, ne.profile.powers, k) == pytest.approx(star, rel=1e-14)
        assert ne.profile.powers == pytest.approx(ne_report.solution.powers, rel=1e-9)


class TestImprovementRegion:
    def test_weak_inequality(self, ne_point):
        assert in_improvement_region(ne_point, ne_point)

    def test_strictly_worse_component_fails(self, ne_point, so_point):
        assert in_improvement_region(so_point, ne_point)
        assert not in_improvement_region(ne_point, so_point)

    def test_dimension_mismatch(self, ne_point):
        odd = UtilityPoint(profile=PowerProfile((1.0, 1.0)), utilities=(1.0,),
                           normalized=(1.0,))
        with pytest.raises(ValueError, match="length"):
            in_improvement_region(odd, ne_point)


class TestNashBargaining:
    def test_reference_values(self, nbs_point):
        assert nbs_point.profile.normalized(1.0) == pytest.approx((2.26, 1.52),
                                                                  abs=0.05)
        assert nbs_point.normalized == pytest.approx((0.288, 0.434), abs=0.005)

    def test_stays_in_improvement_region(self, nbs_point, ne_point):
        assert in_improvement_region(nbs_point, ne_point)

    def test_product_dominates_sampled_region(self, nbs_point, ne_point, grid_points):
        d1, d2 = ne_point.utilities
        u1, u2 = grid_points.u1, grid_points.u2
        region = (u1 >= d1) & (u2 >= d2)
        best = np.max(((u1 - d1) * (u2 - d2))[region], initial=0.0)
        got = ((nbs_point.utilities[0] - d1) * (nbs_point.utilities[1] - d2))
        assert got >= best

    def test_sandwich_ordering(self, ne_point, so_point, nbs_point):
        assert ne_point.normalized[0] < so_point.normalized[0] < nbs_point.normalized[0]

    def test_symmetric_model_equal_split(self, symmetric_model):
        base = nash_equilibrium(symmetric_model)
        nbs = nash_bargaining(symmetric_model, base)
        u1, u2 = nbs.utilities
        assert abs(u1 - u2) <= 1e-4

    def test_empty_region_raises(self, ref_model):
        # utilities no profile reaches, claimed at a profile in the box, do
        # not empty the region: the search scores from the profile's own
        # utilities
        profile = PowerProfile((1.0, 1.0))
        claimed = UtilityPoint(profile=profile, utilities=(10.0, 10.0),
                               normalized=(10.0, 10.0))
        d = utility_point(ref_model, profile)
        for search in (nash_bargaining, fairness_projection):
            got = search(ref_model, claimed)
            assert got == search(ref_model, d)
            assert in_improvement_region(got, d)
        assert bargaining_points(ref_model, claimed) == bargaining_points(ref_model, d)

    @pytest.mark.parametrize("powers", [(5.5, 1.0), (1.0, 5.0000001)],
                             ids=["player-1", "player-2"])
    def test_disagreement_above_the_cap_raises(self, ref_model, powers):
        above = utility_point(ref_model, powers)
        for search in (nash_bargaining, fairness_projection, bargaining_points):
            with pytest.raises(ValueError, match=r"^disagreement\.profile\[\d\] "
                                                 r"exceeds power_cap$"):
                search(ref_model, above)


class TestFairnessProjection:
    def test_equal_gain_diagnostic(self, ref_model, ne_point, grid_points):
        fair = fairness_projection(ref_model, ne_point)
        assert in_improvement_region(fair, ne_point)
        d1, d2 = ne_point.utilities
        best_grid = np.max(np.minimum(grid_points.u1 - d1, grid_points.u2 - d2))
        assert min(fair.utilities[0] - d1, fair.utilities[1] - d2) >= best_grid
        gains = (fair.utilities[0] - d1, fair.utilities[1] - d2)
        assert abs(gains[0] - gains[1]) <= 5e-3


class TestExports:
    def test_distance_to_frontier(self, frontier):
        assert distance_to_frontier(frontier[0], frontier) == 0.0
        with pytest.raises(ValueError, match="empty"):
            distance_to_frontier(frontier[0], [])

    def test_grid_csv_marks_only_grid_profiles(self, ref_model):
        plane = utility_grid(ref_model, 5)
        for cells, marked in (([7], [7]), ([], [])):
            _, body, _ = grid_csv_rows(plane, cells)
            flags = [line.rsplit(",", 1)[1] for line in "".join(body).splitlines()]
            assert flags == ["1" if k in marked else "0" for k in range(25)]

    @pytest.mark.parametrize("noise_power, rate_scale, columns", [
        (1.0, 1.0, 2), (2.5, 2.5, 2), (0.4, 2.5, 4)])
    def test_grid_csv_formats_each_utility_once_at_unit_scale(
            self, monkeypatch, noise_power, rate_scale, columns):
        plane = utility_grid(make_model(noise_power=noise_power,
                                        rate_scale=rate_scale), 7)
        calls = []

        def counted(x):
            calls.append(x)
            return builtins.repr(x)

        monkeypatch.setattr(icpower.efficiency, "repr", counted, raising=False)
        grid_csv_rows(plane, [])
        assert len(calls) == 7 + columns * 7 * 7  # the axis, then the utilities

    def test_grid_csv_layout(self, ref_model):
        plane = utility_grid(ref_model, 12)
        points = all_points(plane)
        cells = pareto_frontier(plane)
        header, body, texts = grid_csv_rows(plane, cells)
        lines = "".join(body).splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert header == ["s1", "s2", "u1", "u2", "u1_norm", "u2_norm",
                          "on_frontier"]
        assert len(rows) == len(points)
        assert sum(r[-1] for r in rows) == len(cells)
        for row, pt in zip(rows, points):
            assert (row[0], row[1]) == pt.profile.powers
            assert (row[2], row[3]) == pt.utilities
        # each frontier cell's texts are the first six fields of its line
        assert texts == [tuple(lines[k].split(",")[:6]) for k in cells.tolist()]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("network", [{}, {"noise_power": 0.4, "rate_scale": 2.5}],
                             ids=["unit-scale", "scaled"])
    def test_grid_csv_is_what_csv_writer_writes_for_each_single_cell(self, n, network):
        # every cell marked alone: a flag in a row's last column, which ends
        # its block, and in the first and last rows
        plane = utility_grid(make_model(**network), n)
        points = all_points(plane)
        for k in range(n * n):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["s1", "s2", "u1", "u2", "u1_norm", "u2_norm", "on_frontier"])
            for m, pt in enumerate(points):
                writer.writerow([*pt.profile.powers, *pt.utilities, *pt.normalized,
                                 int(m == k)])
            header, body, texts = grid_csv_rows(plane, [k])
            want = buf.getvalue().splitlines(keepends=True)
            assert [",".join(header) + "\n", *body] == [want[0]] + [
                "".join(want[1 + r * n:1 + (r + 1) * n]) for r in range(n)]
            assert texts == [tuple(want[1 + k].split(",")[:6])]
