"""Bracketing solver checks against closed-form roots and bisection."""
import math

import pytest

from icpower.numerics import illinois_root

from bisection import bisect_root


class TestBisectRoot:
    def test_finds_cosine_root(self):
        root = bisect_root(math.cos, 0.0, 2.0)
        assert abs(root - math.pi / 2) < 1e-9
        assert abs(math.cos(root)) <= 1e-12

    def test_exact_endpoint_root(self):
        assert bisect_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert bisect_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_requires_sign_change(self):
        with pytest.raises(ValueError, match="no sign change"):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_decreasing_function(self):
        root = bisect_root(lambda x: 3.0 - x, 0.0, 10.0)
        assert abs(root - 3.0) < 1e-9


class TestIllinoisRoot:
    @staticmethod
    def counted(f):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)
        return g, calls

    def test_finds_cosine_root_inside_the_bracket(self):
        f, calls = self.counted(math.cos)
        root = illinois_root(f, 0.0, 2.0, 1.0, math.cos(2.0))
        assert abs(root - math.pi / 2) <= 2.0 * math.ulp(math.pi / 2)
        assert all(0.0 < x < 2.0 for x in calls) and len(calls) <= 12

    def test_exact_endpoint_root(self):
        assert illinois_root(lambda x: x - 1.0, 1.0, 2.0, 0.0, 1.0) == 1.0
        assert illinois_root(lambda x: x - 2.0, 1.0, 2.0, -1.0, 0.0) == 2.0

    def test_infinite_end_gives_a_sign_alone(self):
        root = illinois_root(lambda x: x - 0.3, 0.0, 1.0, -math.inf, 0.7)
        assert abs(root - 0.3) <= 2.0 * math.ulp(0.3)

    def test_returns_the_end_on_b_side(self):
        # sqrt(2) is no float: the bracket closes on adjacent floats, and the
        # result is the one where f has f(b)'s sign, in either order
        f = lambda x: x * x - 2.0
        hi = illinois_root(f, 1.0, 2.0, -1.0, 2.0)
        lo = illinois_root(f, 2.0, 1.0, 2.0, -1.0)
        assert f(hi) > 0.0 > f(lo) and math.nextafter(lo, 2.0) == hi

    def test_flat_then_steep_matches_bisection(self):
        # -1e-60 nearly everywhere, then steep: the secant creeps from the flat
        # end, so the bracket must be made to halve
        f = lambda x: math.prod([x] * 60) - 1e-60
        g, calls = self.counted(f)
        root = illinois_root(g, 0.0, 1.0, f(0.0), f(1.0))
        assert abs(root - bisect_root(f, 0.0, 1.0)) <= 4.0 * math.ulp(0.1)
        assert len(calls) <= 40

    def test_step_closes_on_its_edge(self):
        # a constant far below the other end's value, then a line through 0:
        # secant points pile up on the constant's side unless moved inside
        f = lambda x: -1e-158 if x < 1e-10 else x - 1e-10
        root = illinois_root(f, 0.0, 4.5, f(0.0), f(4.5))
        assert abs(root - 1e-10) <= 4.0 * math.ulp(1e-10)
