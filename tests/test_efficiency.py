"""Utility plane: grids, Pareto frontier, welfare optimum, bargaining."""
import collections.abc
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from icpower import (EmptyImprovementRegionError, PowerProfile, UtilityPlane,
                     UtilityPoint, Weights, distance_to_frontier, ee_utility,
                     fairness_projection, gamma_star, in_improvement_region,
                     nash_bargaining, ne_continuous, pareto_frontier,
                     social_optimum, utility_grid, utility_point)
from icpower.efficiency import _surfaces, grid_csv_rows
from icpower.network import _sinr_per_watt

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
    u1, u2 = _surfaces(model, axis, axis)
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
    st.floats(0.0, 1.0), st.integers(1, 60), st.floats(0.5, 10.0),
    st.floats(0.05, 3.0), st.floats(0.2, 5.0))


zoom_models = random_models.filter(lambda m: m.packet_bits >= 2)


def dense_patch(model, center, half, n=401):
    """u1, u2 on an n x n patch within +/- half of ``center``, clipped to
    [0, power_cap]^2, straight from the SINR-per-watt expression."""
    s = [np.clip(np.linspace(c - half, c + half, n), 0.0, model.power_cap) for c in center]
    s = (s[0][:, None], s[1][None, :])
    out = []
    for k in range(2):
        gamma = _sinr_per_watt(model, s, k) * s[k]
        tput = model.rate_scale * (-np.expm1(-gamma)) ** model.packet_bits
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(np.where(s[k] > 0, tput / s[k], 0.0))
    return out


def synthetic_point(u1, u2, tag):
    return UtilityPoint(profile=PowerProfile((float(tag), 0.0)),
                        utilities=(u1, u2), normalized=(u1, u2))


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
        points = utility_grid(ref_model, 2)
        assert len(points) == 4
        assert points[0].profile.powers == (0.0, 0.0)
        assert points[0].utilities == (0.0, 0.0)
        assert points[3].profile.powers == (5.0, 5.0)

    def test_row_major_order(self, ref_model):
        points = utility_grid(ref_model, 3)
        assert [p.profile.powers for p in points[:4]] == [
            (0.0, 0.0), (0.0, 2.5), (0.0, 5.0), (2.5, 0.0)]

    def test_matches_scalar_utilities(self, ref_model):
        for pt in utility_grid(ref_model, 7):
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
        for pt in utility_grid(model, n):
            assert utility_point(model, pt.profile).utilities == pytest.approx(
                pt.utilities, rel=1e-13, abs=0.0)

    def test_sequence_protocol_matches_list(self, ref_model):
        plane = utility_grid(ref_model, 7)
        old = reference_grid(ref_model, 7)
        assert isinstance(plane, collections.abc.Sequence)
        assert len(plane) == len(old) == 49
        assert list(plane) == old
        assert [plane[k] for k in range(49)] == old
        assert plane[-1] == old[-1] and plane[-49] == old[0]
        assert plane[np.int64(8)] == old[8]
        for cut in (slice(2, 5), slice(None, None, -3), slice(40, 100),
                    slice(-5, None), slice(3, 3)):
            assert plane[cut] == old[cut]
        for bad in (49, -50):
            with pytest.raises(IndexError):
                plane[bad]

    def test_resolution_validated(self, ref_model):
        with pytest.raises(ValueError, match="n_per_axis"):
            utility_grid(ref_model, 1)

    def test_two_players_only(self):
        three = make_model(gains=((1.0, 0.1, 0.1), (0.1, 1.0, 0.1),
                                  (0.1, 0.1, 1.0)))
        with pytest.raises(ValueError, match="2 players"):
            utility_grid(three, 5)

    def test_single_user_bound(self, ref_model, grid_points):
        # nobody beats the best interference-free efficiency of their link
        g = gamma_star(ref_model.packet_bits)
        for k in range(2):
            mu = 4.0 * ref_model.gains[k][k]
            best = (ref_model.rate_scale * (1.0 - math.exp(-g)) ** ref_model.packet_bits
                    * mu / g)
            assert all(pt.utilities[k] <= best + 1e-9 for pt in grid_points)


class TestParetoFrontier:
    def test_single_point(self):
        pt = synthetic_point(1.0, 2.0, 0)
        assert pareto_frontier([pt]) == [pt]

    def test_dominated_point_dropped(self):
        low = synthetic_point(1.0, 1.0, 0)
        high = synthetic_point(2.0, 2.0, 1)
        assert pareto_frontier([low, high]) == [high]

    def test_weak_domination_drops_equal_coordinate(self):
        a = synthetic_point(1.0, 2.0, 0)
        b = synthetic_point(1.0, 3.0, 1)  # same u1, better u2
        assert pareto_frontier([a, b]) == [b]

    def test_duplicates_collapse_to_smallest_profile(self):
        twin_a = synthetic_point(1.0, 1.0, 7)
        twin_b = synthetic_point(1.0, 1.0, 3)
        out = pareto_frontier([twin_a, twin_b])
        assert out == [twin_b]
        flat = UtilityPlane(np.array([0.0, 1.0]), np.ones((2, 2)), np.ones((2, 2)), 1.0)
        assert pareto_frontier(flat) == [flat[0]]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            pareto_frontier([])

    def test_sorted_and_monotone(self, frontier):
        u1 = [pt.utilities[0] for pt in frontier]
        u2 = [pt.utilities[1] for pt in frontier]
        assert all(a < b for a, b in zip(u1, u1[1:]))
        assert all(a >= b for a, b in zip(u2, u2[1:]))

    def test_matches_brute_force_on_coarse_grid(self, ref_model):
        points = utility_grid(ref_model, 50)
        assert pareto_frontier(points) == brute_frontier(points)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=40))
    def test_matches_brute_force_on_random_clouds(self, pairs):
        points = [synthetic_point(float(a), float(b), i)
                  for i, (a, b) in enumerate(pairs)]
        assert pareto_frontier(points) == brute_frontier(points)

    @settings(max_examples=60, deadline=None)
    @given(random_models, st.integers(2, 30))
    def test_plane_matches_brute_force_on_random_models(self, model, n):
        # the s = 0 row and column tie at utility 0 for the silent player
        plane = utility_grid(model, n)
        want = brute_frontier(plane)
        assert pareto_frontier(plane) == want
        assert pareto_frontier(list(plane)) == want


class TestSocialOptimum:
    def test_reference_values(self, so_point):
        assert so_point.profile.normalized(1.0) == pytest.approx((2.20, 1.55),
                                                                 abs=0.05)
        assert so_point.normalized == pytest.approx((0.278, 0.446), abs=0.005)

    def test_welfare_dominates_grid(self, so_point, grid_points):
        best_grid = max(0.5 * p.utilities[0] + 0.5 * p.utilities[1]
                        for p in grid_points)
        so_welfare = 0.5 * so_point.utilities[0] + 0.5 * so_point.utilities[1]
        assert so_welfare >= best_grid

    def test_degenerate_weights_give_single_user_optimum(self, ref_model):
        so = social_optimum(ref_model, Weights((1.0, 0.0)), n_per_axis=200)
        assert so.profile.powers[1] == 0.0
        expected_s1 = gamma_star(20) / (4.0 * 0.75)
        assert so.profile.powers[0] == pytest.approx(expected_s1, abs=1e-4)

    def test_symmetric_model_symmetric_optimum(self, symmetric_model):
        so = social_optimum(symmetric_model, Weights((0.5, 0.5)), n_per_axis=150)
        s1, s2 = so.profile.powers
        assert abs(s1 - s2) <= 1e-5

    def test_weight_count_checked(self, ref_model):
        with pytest.raises(ValueError, match="2 weights"):
            social_optimum(ref_model, Weights((1.0,)), n_per_axis=50)


class TestZoom:
    """The grid-then-refine optimizers against their grid and a dense local
    search around their result."""

    @staticmethod
    def check(model, n, point, score):
        # rescored on the array path: math.expm1 and np.expm1 round differently
        x = point.profile.powers
        got = float(score(*dense_patch(model, x, 0.0, n=1))[0, 0])
        plane = utility_grid(model, n)
        grid = float(np.max(score(plane.u1, plane.u2)))
        assert got >= grid
        # an improvement region the grid meets only at its edge is no basin
        assume(grid > 0.0)
        # a quarter grid step: close enough to stay in the result's basin
        half = 0.25 * model.power_cap / (n - 1)
        dense = float(np.max(score(*dense_patch(model, x, half))))
        assert got >= dense - 1e-12 * abs(dense)

    @settings(max_examples=40, deadline=None)
    @given(zoom_models, st.integers(20, 150))
    def test_social_optimum(self, model, n):
        point = social_optimum(model, Weights((0.5, 0.5)), n_per_axis=n)
        self.check(model, n, point, lambda u1, u2: 0.5 * u1 + 0.5 * u2)

    @settings(max_examples=40, deadline=None)
    @given(zoom_models, st.integers(20, 150))
    def test_nash_bargaining(self, model, n):
        ne = ne_continuous(model)
        assume(ne.converged)
        disagreement = utility_point(model, ne.solution.powers)
        d1, d2 = disagreement.utilities
        try:
            point = nash_bargaining(model, disagreement, n)
        except EmptyImprovementRegionError:
            assume(False)

        def product(u1, u2):
            g1, g2 = u1 - d1, u2 - d2
            return np.where((g1 >= 0) & (g2 >= 0), g1 * g2, -np.inf)

        self.check(model, n, point, product)

    @staticmethod
    def gains_over_ne(model, point_of):
        ne = utility_point(model, ne_continuous(model).solution.powers)
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


class TestImprovementRegion:
    def test_weak_inequality(self, ne_point):
        assert in_improvement_region(ne_point, ne_point)

    def test_strictly_worse_component_fails(self, ne_point, so_point):
        assert in_improvement_region(so_point, ne_point)
        assert not in_improvement_region(ne_point, so_point)

    def test_dimension_mismatch(self, ne_point):
        odd = UtilityPoint(profile=PowerProfile((1.0,)), utilities=(1.0,),
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
        best = max(((p.utilities[0] - d1) * (p.utilities[1] - d2)
                    for p in grid_points
                    if p.utilities[0] >= d1 and p.utilities[1] >= d2),
                   default=0.0)
        got = ((nbs_point.utilities[0] - d1) * (nbs_point.utilities[1] - d2))
        assert got >= best

    def test_sandwich_ordering(self, ne_point, so_point, nbs_point):
        assert ne_point.normalized[0] < so_point.normalized[0] < nbs_point.normalized[0]

    def test_symmetric_model_equal_split(self, symmetric_model):
        from icpower import ne_continuous
        ne = ne_continuous(symmetric_model)
        base = utility_point(symmetric_model, ne.solution.powers)
        nbs = nash_bargaining(symmetric_model, base, n_per_axis=150)
        u1, u2 = nbs.utilities
        assert abs(u1 - u2) <= 1e-4

    def test_empty_region_raises(self, ref_model):
        unreachable = UtilityPoint(profile=PowerProfile((1.0, 1.0)),
                                   utilities=(10.0, 10.0), normalized=(10.0, 10.0))
        with pytest.raises(EmptyImprovementRegionError):
            nash_bargaining(ref_model, unreachable, n_per_axis=50)


class TestFairnessProjection:
    def test_equal_gain_diagnostic(self, ref_model, ne_point, grid_points):
        fair = fairness_projection(ref_model, ne_point, n_per_axis=400)
        assert in_improvement_region(fair, ne_point)
        d1, d2 = ne_point.utilities
        best_grid = max(min(p.utilities[0] - d1, p.utilities[1] - d2)
                        for p in grid_points)
        assert min(fair.utilities[0] - d1, fair.utilities[1] - d2) >= best_grid
        gains = (fair.utilities[0] - d1, fair.utilities[1] - d2)
        assert abs(gains[0] - gains[1]) <= 5e-3


class TestExports:
    def test_distance_to_frontier(self, frontier):
        assert distance_to_frontier(frontier[0], frontier) == 0.0
        with pytest.raises(ValueError, match="empty"):
            distance_to_frontier(frontier[0], [])

    def test_grid_csv_marks_only_grid_profiles(self, ref_model):
        plane = utility_grid(ref_model, 5)  # axis 0, 1.25, 2.5, 3.75, 5
        off_grid = utility_point(ref_model, (1.0, 4.0))
        for frontier, marked in (([off_grid, plane[7]], [7]), ([], [])):
            _, body = grid_csv_rows(plane, frontier)
            flags = [line.rsplit(",", 1)[1] for line in "".join(body).splitlines()]
            assert flags == ["1" if k in marked else "0" for k in range(25)]

    def test_grid_csv_layout(self, ref_model):
        points = utility_grid(ref_model, 12)
        frontier12 = pareto_frontier(points)
        header, body = grid_csv_rows(points, frontier12)
        rows = [[float(v) for v in line.split(",")]
                for line in "".join(body).splitlines()]
        assert header == ["s1", "s2", "u1", "u2", "u1_norm", "u2_norm",
                          "on_frontier"]
        assert len(rows) == len(points)
        assert sum(r[-1] for r in rows) == len(frontier12)
        for row, pt in zip(rows, points):
            assert (row[0], row[1]) == pt.profile.powers
            assert (row[2], row[3]) == pt.utilities
