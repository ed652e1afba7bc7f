"""Scalar bisection: gamma_star, the slope peak and the priced root's certificate."""
from __future__ import annotations

from typing import Callable

__all__ = ["bisect_root"]


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    residual_tol: float = 1e-12,
) -> float:
    """Find a root of f on [lo, hi] by bisection.

    Requires a sign change on the bracket.  Stops once |f(mid)| falls below
    ``residual_tol`` or the bracket cannot be narrowed further.
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
        if abs(fm) <= residual_tol or mid in (lo, hi):
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return mid
