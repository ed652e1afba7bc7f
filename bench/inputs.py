"""Seeded operation lists for the three benchmark workloads.

A workload is a list of blocks; each block is a list of CLI operations with
a fixed composition, and the timed loop always runs whole blocks.  Fixing
the composition per block is what keeps a run's figures steady from seed to
seed: a pricing block always holds the same number of inputs whose dynamics
settle, spin into a cycle with no pure equilibrium, and spin while an
equilibrium exists, so only which networks and surcharges they are changes.

Block b is drawn from its own random stream, seeded by the seed and b, and
is made when the loop first needs it.  So the list is the same on every
run, however far a run gets, and a run never wraps round to operations it
has already timed.  Every timed operation runs on its own network: a seeded
draw over the direct and cross gains, ``packet_bits`` and ``power_cap``.
No two timed operations share an argv, so nothing the program keeps in
memory between calls is reused the way one CLI process per command never
could.  The warm-up runs each command kind once on the bundled reference
network.  Each network is written as a config file before its block runs.
"""
from __future__ import annotations

import copy
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("plane", "pricing", "solve-mix")
# Pricing inputs per block, by the oracle's verdict.  The counts are the
# nearest whole numbers to the shares measured over 2,000 draws: 84.7% of
# inputs settle, 9.5% have no pure NE and 5.9% have one that synchronous
# dynamics miss.  Each run records the shares among its own draws.
PRICING_BLOCK = {"settle": 42, "no_ne": 5, "missed": 3}
MAX_PRICING_DRAWS = 5_000  # per block; a missed NE is about one draw in 17
PLANE_BLOCK = 50  # one n = grid, ten n in 35-37.5% of it, the rest in 25-27.5%
PLANE_MIDS = 10
COARSE = 100  # grid of the cheap first pass of ``_cooperation_pays``


@dataclass(frozen=True)
class Op:
    """One CLI call: ``icpower --config <net> --out <dir> --quiet <args>``."""

    kind: str
    args: tuple[str, ...]
    net: int
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Size:
    """How big a run is; ``SMOKE`` keeps the smoke test to seconds.

    ``grid`` is plane's largest n and every config's ``n_per_axis`` (None
    keeps the reference config's); ``max_iter`` caps the dynamics (None
    keeps the config's).  A run does at least ``min_ops`` operations and
    times ``spawns`` fresh interpreters for ``setup_s``."""

    grid: int | None = None
    max_iter: int | None = None
    min_ops: int = 100  # so that the p90 latency has at least 10 samples beyond it
    spawns: int = 10


FULL = Size()
SMOKE = Size(grid=24, max_iter=200, min_ops=1, spawns=1)


def reference_config(root: Path) -> dict:
    path = root / "src" / "icpower" / "data" / "paper.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _draw_network(rng, ref: dict) -> dict:
    cfg = copy.deepcopy(ref)
    net = cfg["network"]
    direct = rng.uniform(0.5, 1.5, 2).round(4)
    cross = rng.uniform(0.1, 0.6, 2).round(4)
    net["gains"] = [[float(direct[0]), float(cross[0])],
                    [float(cross[1]), float(direct[1])]]
    net["packet_bits"] = int(rng.integers(10, 41))
    net["power_cap"] = round(float(rng.uniform(3.0, 8.0)), 4)
    # the on/off games' gains; nfe needs h1/h2 < 1/(1 + threshold/W) = 0.5
    h, h2 = rng.uniform(0.5, 1.5, 2).round(4)
    cfg["finite"]["gains"] = {"h": float(h), "h1": round(float(h2 * rng.uniform(0.1, 0.45)), 4),
                              "h2": float(h2)}
    return cfg


def _cooperation_pays(cfg: dict, n: int) -> bool:
    """Whether every profile on the program's n x n grid that does not beat
    the equilibrium for both players has a weighted welfare at least 0.1%
    below the best, on that grid and on a coarse one.  Then the social
    optimum that ``repeated`` cooperates at beats the equilibrium for both
    players rather than sitting in a corner where one is silent.  The
    coarse grid comes first: it is cheap and turns most draws away."""
    return all(_cooperation_pays_on(cfg, m) for m in sorted({min(n, COARSE), n}))


def _cooperation_pays_on(cfg: dict, n: int) -> bool:
    net = oracle.Net.from_config(cfg)
    ne = oracle.unpriced_ne(net)
    if ne is None:
        return False
    d = net.utilities(ne)
    w1, w2 = cfg["weights"]
    best = bad = -np.inf
    for u1, u2 in oracle.grid_rows(net, n):
        welfare = w1 * u1 + w2 * u2
        best = max(best, float(welfare.max()))
        short = (u1 <= d[0]) | (u2 <= d[1])
        if short.any():
            bad = max(bad, float(welfare[short].max()))
    return bad < best - 1e-3 * abs(best)


def _classify(cfg: dict, alpha: float) -> dict:
    """The oracle's verdict on a pricing input: do its brute-force dynamics
    settle, and does a pure equilibrium exist."""
    net = oracle.Net.from_config(cfg)
    settles = oracle.priced_orbit_settles(net, alpha)
    pure_ne = settles or oracle.has_pure_ne(net, alpha)
    return {"alpha": alpha, "settles": settles, "pure_ne": pure_ne,
            "stratum": "settle" if settles else ("missed" if pure_ne else "no_ne")}


class Plan:
    """The operation list of one workload and seed, made a block at a time.

    ``networks[i]`` is the config that ``Op.net == i`` runs on; index 0 is
    the reference network."""

    def __init__(self, workload: str, seed: int, root: Path, size: Size = FULL):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.size = workload, seed, size
        self.ref = reference_config(root)
        self.grid = size.grid or self.ref["search"]["n_per_axis"]
        self.networks: list[dict] = []
        self.blocks: list[list[Op]] = []
        self.drawn: Counter = Counter()  # pricing draws per oracle verdict
        self._add(copy.deepcopy(self.ref))
        self.warm = self._warm()

    def _add(self, cfg: dict) -> int:
        if self.size.grid is not None:
            cfg["search"]["n_per_axis"] = self.size.grid
        if self.size.max_iter is not None:
            cfg["search"]["max_iter"] = self.size.max_iter
        self.networks.append(cfg)
        return len(self.networks) - 1

    def _stream(self, index: int) -> list[int]:
        """Seed of random stream ``index``: 0 for the warm-up, b + 1 for block b."""
        return [self.seed, WORKLOADS.index(self.workload), index]

    def block(self, b: int) -> list[Op]:
        while len(self.blocks) <= b:
            rng = np.random.default_rng(self._stream(len(self.blocks) + 1))
            make = {"plane": self._plane, "pricing": self._pricing,
                    "solve-mix": self._solve_mix}[self.workload]
            block = make(rng)
            rng.shuffle(block)
            self.blocks.append(block)
        return self.blocks[b]

    def properties(self) -> dict:
        """The input properties that decide which code paths run."""
        ops = [op for block in self.blocks for op in block]
        if self.workload == "plane":
            return {"share_at_grid": sum(op.info["n"] == self.grid for op in ops) / len(ops),
                    "sizes": sorted({op.info["n"] for op in ops})}
        if self.workload == "pricing":
            total = sum(self.drawn.values())
            return {"drawn": total,
                    "drawn_share_no_pure_ne": self.drawn["no_ne"] / total,
                    "drawn_share_missed_ne": self.drawn["missed"] / total,
                    "share_no_pure_ne": PRICING_BLOCK["no_ne"] / sum(PRICING_BLOCK.values()),
                    "share_missed_ne": PRICING_BLOCK["missed"] / sum(PRICING_BLOCK.values())}
        return {"kinds": sorted({op.kind for op in ops})}

    # -- blocks ----------------------------------------------------------------

    def _warm(self) -> list[Op]:
        """Each command kind once, on the reference network, untimed."""
        if self.workload == "plane":
            return [Op("pareto", ("pareto", "--n", str(self.grid)), 0, {"n": self.grid})]
        if self.workload == "pricing":
            alpha = float(self.ref["pricing"]["alpha"])
            return [Op("pricing", ("pricing", "--alpha", repr(alpha)), 0,
                       _classify(self.ref, alpha))]
        return self._solve_mix(np.random.default_rng(self._stream(0)), lambda _: 0)

    def _plane(self, rng) -> list[Op]:
        """One n = grid, a few mid sizes and many small ones.  The mid group
        is a fifth of the block, so the p90 latency falls in its middle
        rather than on a tail, and 100 operations fit in under 30 s."""
        g = self.grid
        sizes = [g]
        sizes += rng.integers(round(0.35 * g), round(0.375 * g), endpoint=True,
                              size=PLANE_MIDS).tolist()
        sizes += rng.integers(round(0.25 * g), round(0.275 * g), endpoint=True,
                              size=PLANE_BLOCK - 1 - PLANE_MIDS).tolist()
        return [Op("pareto", ("pareto", "--n", str(n)), self._add(_draw_network(rng, self.ref)),
                   {"n": n}) for n in sizes]

    def _pricing(self, rng) -> list[Op]:
        """Draw (network, alpha) pairs and sort them by the oracle's own
        dynamics and equilibrium scan until every stratum is full."""
        pools = {k: [] for k in PRICING_BLOCK}
        for _ in range(MAX_PRICING_DRAWS):
            cfg = _draw_network(rng, self.ref)
            info = _classify(cfg, round(float(rng.uniform(0.0, 0.3)), 6))
            self.drawn[info["stratum"]] += 1
            pool = pools[info["stratum"]]
            if len(pool) < PRICING_BLOCK[info["stratum"]]:
                pool.append(Op("pricing", ("pricing", "--alpha", repr(info["alpha"])),
                               self._add(cfg), info))
            if all(len(pools[k]) == v for k, v in PRICING_BLOCK.items()):
                return [op for pool in pools.values() for op in pool]
        raise RuntimeError(f"pricing strata still short after {MAX_PRICING_DRAWS} draws")

    def _solve_mix(self, rng, net=None) -> list[Op]:
        """Seven operations: three fast ones (ne, finite) and four slow ones
        (social, nbs twice, repeated), so the median latency falls inside the
        slow group rather than on the gap between the groups.

        ``nbs`` and ``repeated`` run only on networks where cooperation pays
        (see ``_cooperation_pays``).  Elsewhere the social optimum can
        silence a player and ``repeated`` rightly exits 2, and ``nbs`` can
        have no region to bargain over."""
        if net is None:
            def net(valid):
                while True:
                    cfg = _draw_network(rng, self.ref)
                    if valid is None or valid(cfg):
                        return self._add(cfg)
        flag = lambda name: (name,) if rng.random() < 0.5 else ()
        deviant = str(int(rng.integers(1, 3)))
        delta = ("--delta", repr(round(float(rng.uniform(0.05, 0.95)), 4)))
        pays = lambda cfg: _cooperation_pays(cfg, self.grid)
        return [
            Op("ne", ("ne",), net(None)),
            Op("finite", ("finite", "--scenario", "nfe", *flag("--ce-uniform")), net(None),
               {"scenario": "nfe"}),
            Op("finite", ("finite", "--scenario", "ic", *flag("--ce-uniform")), net(None),
               {"scenario": "ic"}),
            Op("social", ("social",), net(None)),
            Op("nbs", ("nbs", "--fairness"), net(pays), {"fairness": True}),
            Op("nbs", ("nbs",), net(pays), {"fairness": False}),
            Op("repeated", ("repeated", "--deviant", deviant,
                            *(delta if rng.random() < 0.5 else ())), net(pays)),
        ]
