"""Independent checks of the CLI's artifacts.

Everything here is the benchmark's own arithmetic: the packet-success
utility, a gamma* bisection, brute-force best-response scans and numpy
frontier sweeps.  Nothing calls into ``icpower``, so a bug in a solver
cannot hide itself by also being in its check.

Each ``check_*`` function reads the artifacts one CLI command wrote and
returns ``None`` when they are right, or a one-line reason when not.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Grid of the brute-force priced best-response scan used on exit-0 results.
BR_GRID = 4001
# Grids of the pure-equilibrium existence scan: s1 values, and own powers per
# best response.  The own grid is twice as fine, so the s1 grid is a subset.
NE_S1_GRID = 1001
NE_OWN_GRID = 2001
# A change of phi(s1) = BR1(BR2(s1)) larger than this share of the power cap
# between neighbouring s1 values is a best-response jump (to or from
# silence), not a continuous crossing of the diagonal.
JUMP_SHARE = 0.05
# Rows of a best-response scan evaluated at once; bounds the scan's memory so
# the oracle never sets the peak RSS of the measured process.
CHUNK = 64
REL_TOL = 1e-9


@dataclass(frozen=True)
class Net:
    """A two-player network read from a config's ``network`` section."""

    g: tuple[tuple[float, float], tuple[float, float]]
    noise: float
    w: float
    cap: float
    bits: int
    rate: float

    @classmethod
    def from_config(cls, cfg: dict) -> "Net":
        n = cfg["network"]
        g = tuple(tuple(float(v) for v in row) for row in n["gains"])
        return cls(g=g, noise=float(n["noise_power"]), w=float(n["processing_gain"]),
                   cap=float(n["power_cap"]), bits=int(n["packet_bits"]),
                   rate=float(n["rate_scale"]))

    def mu(self, k: int, other):
        """SINR per watt of player k against the other player's power."""
        return self.w * self.g[k][k] / (self.noise + self.g[k][1 - k] * other)

    def utility(self, k: int, own, other):
        """Throughput per watt; 0 at zero power.  Broadcasts over arrays."""
        own = np.asarray(own, dtype=float)
        gamma = self.mu(k, other) * own
        tput = self.rate * (-np.expm1(-gamma)) ** self.bits
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(own > 0, tput / own, 0.0)

    def utilities(self, s):
        return (float(self.utility(0, s[0], s[1])), float(self.utility(1, s[1], s[0])))


@functools.lru_cache(maxsize=None)
def gamma_star(bits: int) -> float:
    """Root of L*g*exp(-g) = 1 - exp(-g) on g > 0, by plain bisection."""
    lo, hi = 1e-6, 50.0
    f = lambda g: bits * g * math.exp(-g) + math.expm1(-g)
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if mid in (lo, hi) or fm == 0.0:
            break
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def unpriced_br(net: Net, k: int, other: float) -> float:
    return min(net.cap, gamma_star(net.bits) / net.mu(k, other))


def unpriced_ne(net: Net, max_iter: int = 100_000) -> tuple[float, float] | None:
    """Fixed point of the closed-form best responses, or None."""
    s = (net.cap, net.cap)
    for _ in range(max_iter):
        nxt = (unpriced_br(net, 0, s[1]), unpriced_br(net, 1, s[0]))
        if max(abs(a - b) for a, b in zip(nxt, s)) <= 1e-14 * net.cap:
            return nxt
        s = nxt
    return None


def priced_br_scan(net: Net, k: int, alpha: float, others, own_grid) -> np.ndarray:
    """Brute-force argmax over ``own_grid`` of u_k - alpha*s_k, per opponent power."""
    others = np.atleast_1d(np.asarray(others, dtype=float))
    out = np.empty(len(others))
    for lo in range(0, len(others), CHUNK):
        opp = others[lo:lo + CHUNK, None]
        u = net.utility(k, own_grid[None, :], opp) - alpha * own_grid[None, :]
        out[lo:lo + CHUNK] = own_grid[np.argmax(u, axis=1)]
    return out


def priced_orbit_settles(net: Net, alpha: float, max_iter: int = 1000) -> bool:
    """Whether synchronous priced best responses from (cap, cap) settle.

    Runs the dynamics with brute-force best responses on a ``BR_GRID``
    grid, where every orbit ends in a cycle.  A cycle no wider than a few
    grid steps is the grid's image of convergence; a wider one is an orbit
    the continuous dynamics cannot leave either.
    """
    grid = np.linspace(0.0, net.cap, BR_GRID)
    step = grid[1] - grid[0]
    s = (net.cap, net.cap)
    seen = {s: 0}
    orbit = [s]
    for it in range(1, max_iter + 1):
        s = (float(priced_br_scan(net, 0, alpha, s[1], grid)[0]),
             float(priced_br_scan(net, 1, alpha, s[0], grid)[0]))
        if s in seen:
            cycle = np.array(orbit[seen[s]:])
            return bool(np.all(np.ptp(cycle, axis=0) <= 3 * step))
        seen[s] = it
        orbit.append(s)
    return False


def has_pure_ne(net: Net, alpha: float) -> bool:
    """Whether phi(s1) = BR1(BR2(s1)) meets the diagonal without a jump.

    Scans s1 over [0, cap]; a sign change of phi(s1) - s1 between neighbours
    counts as an equilibrium only where phi moves continuously there.
    """
    s1 = np.linspace(0.0, net.cap, NE_S1_GRID)
    own = np.linspace(0.0, net.cap, NE_OWN_GRID)
    phi = priced_br_scan(net, 0, alpha, priced_br_scan(net, 1, alpha, s1, own), own)
    d = phi - s1
    if np.any(d == 0.0):
        return True
    crossing = np.sign(d[:-1]) != np.sign(d[1:])
    continuous = np.abs(np.diff(phi)) <= JUMP_SHARE * net.cap
    return bool(np.any(crossing & continuous))


def surfaces(net: Net, n: int):
    axis = np.linspace(0.0, net.cap, n)
    s1, s2 = np.meshgrid(axis, axis, indexing="ij")
    return axis, net.utility(0, s1, s2), net.utility(1, s2, s1)


def brute_frontier(net: Net, n: int) -> np.ndarray:
    """Frontier as an (m, 4) array of s1, s2, u1, u2, sorted by u1 ascending.

    Equal utility pairs keep the smallest profile; a point stays when no
    other point is at least as good for both and better for one.
    """
    axis, u1, u2 = surfaces(net, n)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cols = [axis[i.ravel()], axis[j.ravel()], u1.ravel(), u2.ravel()]
    # sort by u1 desc, u2 desc, then s1, s2 asc: the first of each equal
    # utility pair is the smallest profile, and a running max of u2 marks
    # the points no earlier point dominates.
    order = np.lexsort((cols[1], cols[0], -cols[3], -cols[2]))
    pts = np.stack([c[order] for c in cols], axis=1)
    first = np.ones(len(pts), dtype=bool)
    first[1:] = (pts[1:, 2] != pts[:-1, 2]) | (pts[1:, 3] != pts[:-1, 3])
    pts = pts[first]
    best_before = np.concatenate(([-np.inf], np.maximum.accumulate(pts[:-1, 3])))
    return pts[pts[:, 3] > best_before][::-1]


def _close(a, b, rel=REL_TOL) -> bool:
    return bool(np.allclose(a, b, rtol=rel, atol=rel * 1e-3))


def _load(outdir: Path, name: str):
    return json.loads((outdir / name).read_text(encoding="utf-8"))


def _line_count(path: Path) -> int:
    count = 0
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            count += block.count(b"\n")
    return count


# -- per-command checks ----------------------------------------------------

def check_ne(net: Net, rc: int, outdir: Path):
    """Exit 0: each SINR is gamma* or the power is at the cap.  Exit 3 only
    needs a report that admits non-convergence."""
    report = _load(outdir, "ne.json")
    if rc == 3:
        return None if report["converged"] is False else "ne: exit 3 on a converged report"
    s = report["solution"]
    gs = gamma_star(net.bits)
    for k in range(2):
        gamma = net.mu(k, s[1 - k]) * s[k]
        at_cap = abs(s[k] - net.cap) <= REL_TOL * net.cap and gamma <= gs * (1 + 1e-6)
        if not (abs(gamma - gs) <= 1e-6 * gs or at_cap):
            return f"ne: player {k + 1} SINR {gamma:.9g} != gamma* {gs:.9g} below the cap"
    return None


def check_pricing(net: Net, alpha: float, rc: int, outdir: Path):
    """Exit 0: each power is within a grid step of a brute-force best
    response.  Exit 3 only needs a report that admits non-convergence;
    whether an equilibrium existed is the caller's question."""
    report = _load(outdir, "pricing.json")
    if rc == 3:
        return None if report["converged"] is False else "pricing: exit 3 on a converged report"
    s = report["solution"]
    grid = np.linspace(0.0, net.cap, BR_GRID)
    step = grid[1] - grid[0]
    for k in range(2):
        br = float(priced_br_scan(net, k, alpha, s[1 - k], grid)[0])
        u = lambda x: float(net.utility(k, x, s[1 - k])) - alpha * x
        tie = u(s[k]) >= u(br) - 1e-9 * max(abs(u(br)), 1e-12)
        if not (abs(s[k] - br) <= step + 1e-12 or tie):
            return (f"pricing: player {k + 1} power {s[k]:.6g} is not within a grid "
                    f"step of the brute-force best response {br:.6g}")
    return None


def check_pareto(net: Net, n: int, outdir: Path):
    frontier = _load(outdir, "pareto.json")["frontier"]
    got = np.array([p["profile"] + p["utilities"] for p in frontier])
    want = brute_frontier(net, n)
    if got.shape != want.shape or not _close(got, want):
        return f"pareto: frontier of {len(got)} points != brute force {len(want)} points"
    rows = _line_count(outdir / "pareto.csv") - 1
    if rows != n * n:
        return f"pareto: CSV has {rows} rows, expected {n * n}"
    return None


def grid_rows(net: Net, n: int):
    """The utility surfaces on the n x n grid, ``CHUNK`` rows of s1 at a time,
    so that scanning them never sets the measured process's peak RSS."""
    axis = np.linspace(0.0, net.cap, n)
    for lo in range(0, n, CHUNK):
        s1 = axis[lo:lo + CHUNK, None]
        yield net.utility(0, s1, axis[None, :]), net.utility(1, axis[None, :], s1)


def _grid_best(net: Net, n: int, score) -> float:
    return max(float(np.max(score(u1, u2))) for u1, u2 in grid_rows(net, n))


def check_social(net: Net, weights, n: int, outdir: Path):
    art = _load(outdir, "social.json")
    u = net.utilities(art["profile"])
    if not _close(u, art["utilities"]):
        return "social: reported utilities disagree with the profile"
    w1, w2 = weights
    got = w1 * u[0] + w2 * u[1]
    best = _grid_best(net, n, lambda a, b: w1 * a + w2 * b)
    if got < best - REL_TOL * abs(best):
        return f"social: welfare {got:.9g} below the best grid cell {best:.9g}"
    return None


def _bargain_check(net: Net, n: int, d, point: dict, score, label: str):
    u = net.utilities(point["profile"])
    if not _close(u, point["utilities"]):
        return f"{label}: reported utilities disagree with the profile"
    g = (u[0] - d[0], u[1] - d[1])
    tol = REL_TOL * max(abs(d[0]), abs(d[1]))
    if min(g) < -tol:
        return f"{label}: result leaves the improvement region"

    def masked(a, b):
        ga, gb = a - d[0], b - d[1]
        return np.where((ga >= 0) & (gb >= 0), score(ga, gb), -np.inf)

    best = _grid_best(net, n, masked)
    got = float(score(max(g[0], 0.0), max(g[1], 0.0)))
    if got < best - REL_TOL * abs(best) - 1e-15:
        return f"{label}: score {got:.9g} below the best grid cell {best:.9g}"
    return None


def check_nbs(net: Net, n: int, fairness: bool, outdir: Path):
    art = _load(outdir, "nbs.json")
    ne = unpriced_ne(net)
    d = net.utilities(ne)
    if not _close(art["disagreement"]["utilities"], d, rel=1e-7):
        return "nbs: disagreement point is not the equilibrium"
    why = _bargain_check(net, n, d, art["solution"], lambda a, b: a * b, "nbs")
    if why is None and fairness:
        why = _bargain_check(net, n, d, art["fairness"], np.minimum, "nbs fairness")
    return why


def on_off_payoffs(params: dict, gains, noise: float, w: float, level: float):
    t, c, req = params["throughput_reward"], params["power_cost"], params["sinr_threshold"]
    out = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            s = (i * level, j * level)
            for k in range(2):
                gamma = w * gains[k][k] * s[k] / (noise + gains[k][1 - k] * s[1 - k])
                ok = gamma >= req * (1 - 1e-9)
                out[i, j, k] = (t if ok else 0.0) - c * s[k] / level
    return out


def finite_game(cfg: dict, scenario: str):
    fin, net = cfg["finite"], Net.from_config(cfg)
    gains = fin["gains"]
    if scenario == "ic":
        h = gains["h"]
        mat = ((h, h), (h, h))
    else:
        h1, h2 = gains["h1"], gains["h2"]
        h = h1
        mat = ((h1, h2), (h1, h2))
    level = net.noise * fin["sinr_threshold"] / (h * net.w)
    return level, on_off_payoffs(fin, mat, net.noise, net.w, level)


def check_finite(cfg: dict, scenario: str, outdir: Path):
    art = _load(outdir, "finite.json")
    level, pay = finite_game(cfg, scenario)
    want = set()
    for i in range(2):
        for j in range(2):
            if pay[i, j, 0] >= pay[1 - i, j, 0] and pay[i, j, 1] >= pay[i, 1 - j, 1]:
                want.add((round(i * level, 9), round(j * level, 9)))
    got = {tuple(round(v, 9) for v in p) for p in art["pure_nash"]}
    if got != want:
        return f"finite {scenario}: pure NE {sorted(got)} != enumeration {sorted(want)}"
    return None


def min_discount(net: Net, coop, punish) -> float:
    """Closed-form grim-trigger threshold max_k (dev-coop)/(dev-punish)."""
    u_coop, u_pun = net.utilities(coop), net.utilities(punish)
    thr = 0.0
    for k in range(2):
        dev = list(coop)
        dev[k] = unpriced_br(net, k, coop[1 - k])
        u_dev = net.utilities(dev)[k]
        if u_dev > u_coop[k]:
            thr = max(thr, (u_dev - u_coop[k]) / (u_dev - u_pun[k]))
    return thr


def check_repeated(net: Net, outdir: Path):
    art = _load(outdir, "repeated.json")
    if not _close(art["punish_profile"], unpriced_ne(net), rel=1e-7):
        return "repeated: punishment profile is not the equilibrium"
    want = min_discount(net, art["cooperate_profile"], art["punish_profile"])
    if abs(art["min_discount"] - want) > 1e-9:
        return f"repeated: min discount {art['min_discount']:.12g} != closed form {want:.12g}"
    return None
