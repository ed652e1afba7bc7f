"""Bisection, the tests' oracle for the package's bracketed roots."""
from __future__ import annotations

from typing import Callable


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Find a root of f on [lo, hi] by bisection.

    Requires a sign change on the bracket.  Stops where f(mid) is 0 or the
    bracket's ends are adjacent floats.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or mid in (lo, hi):
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return mid
