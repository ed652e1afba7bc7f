"""Scalar bracketed roots: the Illinois regula falsi, which refines the
efficiency search."""
from __future__ import annotations

import math
from typing import Callable

__all__ = ["illinois_root"]


def illinois_root(f: Callable[[float], float], a: float, b: float,
                  fa: float, fb: float) -> float:
    """A root of f between a and b, in either order, by the Illinois regula
    falsi (Dowell & Jarratt, BIT 1971), given fa = f(a) and fb = f(b) of
    opposite signs.  An infinite fa or fb stands for a sign alone.

    Each step evaluates f at the secant point and keeps the sign change; an
    end kept twice running has its value halved.  A secant point within 4
    ulps of an end moves 4 ulps inside (Brent's minimal step), so that where
    f at that end is all rounding the bracket still closes.  The midpoint
    stands in where there is no secant point, where the bracket spans 16
    ulps or less, after a minimal step, and while one end has been kept five
    or more times running, so that a bracket on a function flat at one end
    and steep at the other still halves.  Stops at f == 0, returning that
    point, an end included, or where the ends are adjacent floats, returning
    the one on b's side.  f is evaluated only strictly inside the bracket.
    """
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    side, kept, nudged = 0, 0, False
    for _ in range(200):
        lo, hi = min(a, b), max(a, b)
        x = b - fb * ((b - a) / (fb - fa))
        step = 4.0 * math.ulp(max(abs(a), abs(b)))
        if math.isfinite(x) and hi - lo > 4.0 * step and kept < 5 and not nudged:
            y = min(max(x, lo + step), hi - step)
            nudged, x = y != x, y
        else:
            nudged, x = False, 0.5 * (a + b)
            if not lo < x < hi:
                break
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fb < 0.0):
            kept = kept + 1 if side == 1 else 1
            side, b, fb = 1, x, fx
            if kept > 1:
                fa *= 0.5
        else:
            kept = kept + 1 if side == -1 else 1
            side, a, fa = -1, x, fx
            if kept > 1:
                fb *= 0.5
    return b
