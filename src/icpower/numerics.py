"""Scalar bisection (the efficiency search's improvement intervals) and
golden-section search (the efficiency optimizers)."""
from __future__ import annotations

import math
from typing import Callable

__all__ = ["bisect_root", "golden_section_max"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float) -> tuple[float, float]:
    """Golden-section search for a maximum of f on [lo, hi], unimodal there:
    the bracket shrinks to at most ``tol``, or until floats cannot split it,
    evaluating only interior points.  Returns the better last probe and f there.
    """
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol and lo < c < d < hi:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)
