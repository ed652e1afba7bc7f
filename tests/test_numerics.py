"""Bracketing solver checks against closed-form roots."""
import math

import pytest

from icpower.numerics import bisect_root


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

    def test_residual_stopping(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5

        bisect_root(f, 0.0, 1.0, residual_tol=1e-3)
        assert all(abs(c - 0.5) > 1e-3 for c in calls[:-1]) or len(calls) <= 3
