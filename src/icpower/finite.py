"""Finite two-player games: payoff matrices, dominance, pure equilibria.

Strategies are transmit power levels; the two bundled constructions are the
near-far scenario (one strong, one weak transmitter) and the symmetric
on/off scenario where both links share one gain.  Joint profiles are pairs
``(i, j)`` of strategy indices, player 0's first.  Games and distributions
hold nested tuples of floats, so they compare by value and hash.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

# the on/off games' parameters are a config section; the name stays here too,
# so old pickles of a FiniteGameParams load
from .config import FiniteGameParams
from .network import NetworkModel, _Record, _sinr_per_watt

__all__ = [
    "FiniteGame",
    "JointDistribution",
    "Elimination",
    "build_nfe_game",
    "build_ic_game",
    "iterated_dominance",
    "pure_nash",
    "is_correlated_equilibrium",
]

# Success threshold comparisons allow this relative slack: the on/off games
# place the lone transmitter exactly at the required SINR, and rounding in
# the power level must not flip that case to a failure.
_THRESHOLD_RTOL = 1e-9


def _floats(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in rows)


class FiniteGame(_Record):
    """A two-player finite game: per-player strategy lists plus a payoff matrix.

    ``payoffs[i][j]`` is the utility pair ``(u1, u2)`` when player 0 plays
    its strategy i and player 1 its strategy j.
    """

    __slots__ = ("strategies", "payoffs")

    def __init__(self, strategies: Sequence[Sequence[float]],
                 payoffs: Sequence[Sequence[Sequence[float]]]) -> None:
        strategies = _floats(strategies)
        if len(strategies) != 2:
            raise ValueError(f"a finite game has 2 players, got {len(strategies)}")
        if not all(strategies):
            raise ValueError("every player needs at least one strategy")
        payoffs = tuple(_floats(row) for row in payoffs)
        shape = tuple(map(len, strategies)) + (2,)
        if (len(payoffs) != shape[0] or any(len(row) != shape[1] for row in payoffs)
                or any(len(cell) != 2 for row in payoffs for cell in row)):
            raise ValueError(f"payoff matrix shape != expected {shape}")
        self._set(strategies, payoffs)

    def profile_values(self, joint_index: Sequence[int]) -> tuple[float, ...]:
        """Map a joint strategy-index pair to the power levels it selects."""
        return tuple(self.strategies[k][i] for k, i in enumerate(joint_index))

    def to_json_dict(self) -> dict:
        return {"strategies": [list(r) for r in self.strategies],
                "payoffs": [[list(cell) for cell in row] for row in self.payoffs]}


class JointDistribution(_Record):
    """A probability distribution over joint strategy profiles:
    ``probabilities[i][j]`` is the weight of ``(i, j)``."""

    __slots__ = ("probabilities",)

    def __init__(self, probabilities: Sequence[Sequence[float]]) -> None:
        rows = _floats(probabilities)
        if any(v < 0 for row in rows for v in row):
            raise ValueError("probabilities must be >= 0")
        total = math.fsum(v for row in rows for v in row)
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"probabilities must sum to 1 (got {total})")
        self._set(rows)

    @classmethod
    def uniform_over(cls, shape: Sequence[int],
                     joint_indices: Iterable[Sequence[int]]) -> "JointDistribution":
        n1, n2 = shape
        idx = [tuple(p) for p in joint_indices]
        if not idx:
            raise ValueError("need at least one profile")
        rows = [[0.0] * n2 for _ in range(n1)]
        for p in idx:
            if len(p) != 2 or not (0 <= p[0] < n1 and 0 <= p[1] < n2):
                raise ValueError(f"profile {p} is out of range for shape {tuple(shape)}")
            if rows[p[0]][p[1]]:
                raise ValueError(f"profile {p} is listed twice")
            rows[p[0]][p[1]] = 1.0 / len(idx)
        return cls(probabilities=rows)


class Elimination(_Record):
    """One dominance-elimination step: who lost what to what."""

    __slots__ = ("round", "player", "strategy", "dominator")

    def __init__(self, round: int, player: int, strategy: float, dominator: float) -> None:
        self._set(round, player, strategy, dominator)


def _on_off_game(params: FiniteGameParams, gains: tuple,
                 noise_power: float, processing_gain: float) -> FiniteGame:
    """The 2-player {0, p} game under the threshold rule.

    The power level p puts transmitter 0 alone exactly at the SINR
    threshold.  A player scores ``throughput_reward`` when its SINR clears
    the threshold, zero otherwise, and always pays ``power_cost`` * s/p.
    """
    t, c, req = params.throughput_reward, params.power_cost, params.sinr_threshold
    # validate the channel before dividing by its processing gain
    model = NetworkModel(gains, noise_power, processing_gain, power_cap=1.0,
                         packet_bits=1, rate_scale=1.0)
    p = params.power_level(gains[0][0], noise_power, processing_gain)
    model = NetworkModel(model.gains, noise_power, processing_gain, power_cap=p,
                         packet_bits=1, rate_scale=1.0)
    levels = (0.0, model.power_cap)

    def cell(s: tuple[float, float]) -> tuple[float, float]:
        return tuple((t if _sinr_per_watt(model, s, k) * s[k] >= req * (1.0 - _THRESHOLD_RTOL)
                      else 0.0) - c * s[k] / p for k in range(2))

    return FiniteGame(strategies=(levels, levels),
                      payoffs=[[cell((a, b)) for b in levels] for a in levels])


def build_nfe_game(params: FiniteGameParams, h1: float, h2: float,
                   noise_power: float, processing_gain: float) -> FiniteGame:
    """Build the 2x2 on/off game for a weak (h1) and a strong (h2) transmitter.

    Each transmitter reaches both receivers with its own single gain.  The
    shared power level is chosen so the weak transmitter alone sits exactly at
    the SINR threshold; the gain ratio must satisfy
    h1/h2 < 1 / (1 + sinr_threshold / processing_gain), which guarantees the
    strong transmitter still succeeds through the weak one's interference.
    """
    if not (h1 > 0 and h2 > 0):
        raise ValueError("gains must be > 0")
    game = _on_off_game(params, ((h1, h2), (h1, h2)), noise_power, processing_gain)
    bound = 1.0 / (1.0 + params.sinr_threshold / processing_gain)
    if not h1 / h2 < bound:
        raise ValueError(
            f"near-far assumption violated: h1/h2 = {h1 / h2:g} must be < "
            f"1/(1 + sinr_threshold/processing_gain) = {bound:g}"
        )
    return game


def build_ic_game(params: FiniteGameParams, h: float,
                  noise_power: float, processing_gain: float) -> FiniteGame:
    """Build the symmetric 2x2 on/off game where every link has gain h.

    The power level puts a lone transmitter exactly at the SINR threshold, so
    simultaneous transmission fails for both players.
    """
    if not h > 0:
        raise ValueError("gain must be > 0")
    return _on_off_game(params, ((h, h), (h, h)), noise_power, processing_gain)


def _own(game: FiniteGame, k: int) -> list[list[float]]:
    """Player k's payoffs as ``own[i][o]``: its strategy i against the opponent's o."""
    if k == 0:
        return [[cell[0] for cell in row] for row in game.payoffs]
    return [[cell[1] for cell in col] for col in zip(*game.payoffs)]


def _strictly_dominated(game: FiniteGame, k: int, strat_index: int) -> tuple[bool, int | None]:
    """Whether some single alternative beats player k's ``strat_index``
    against every opponent strategy.  Returns (dominated, first dominating
    index or None)."""
    own = _own(game, k)
    for alt, values in enumerate(own):
        if alt != strat_index and all(a > b for a, b in zip(values, own[strat_index])):
            return True, alt
    return False, None


def _drop(row: tuple, i: int) -> tuple:
    return row[:i] + row[i + 1:]


def iterated_dominance(game: FiniteGame) -> tuple[FiniteGame, list[Elimination]]:
    """Repeatedly remove strictly dominated strategies.

    Each round drops the first dominated strategy of the current game,
    scanning players, then strategies, in index order.  Returns the reduced
    game plus the elimination log.  For strict dominance the surviving
    strategy sets do not depend on removal order.
    """
    log: list[Elimination] = []
    while True:
        for k, i in ((k, i) for k, row in enumerate(game.strategies) for i in range(len(row))):
            dominated, alt = _strictly_dominated(game, k, i)
            if dominated:
                break
        else:
            return game, log
        row = game.strategies[k]
        log.append(Elimination(round=len(log) + 1, player=k, strategy=row[i], dominator=row[alt]))
        if k == 0:
            game = FiniteGame((_drop(row, i), game.strategies[1]), _drop(game.payoffs, i))
        else:
            game = FiniteGame((game.strategies[0], _drop(row, i)),
                              [_drop(cells, i) for cells in game.payoffs])


def pure_nash(game: FiniteGame) -> set[tuple[int, int]]:
    """All joint index profiles where both players play a best response."""
    rows = game.payoffs
    top1 = [max(cell[0] for cell in col) for col in zip(*rows)]  # per column j
    top2 = [max(cell[1] for cell in row) for row in rows]  # per row i
    return {(i, j) for i, row in enumerate(rows) for j, (u1, u2) in enumerate(row)
            if u1 == top1[j] and u2 == top2[i]}


def is_correlated_equilibrium(game: FiniteGame, dist: JointDistribution,
                              tol: float = 1e-9) -> tuple[bool, float]:
    """Check the obedience inequalities of a recommendation distribution.

    For every player k and every pair (recommended, alternative) of its
    strategies, the expected gain of obeying, weighted by the distribution,
    must be >= -tol.  Returns (holds, worst slack).
    """
    q = dist.probabilities
    shape = tuple(map(len, game.strategies))
    if len(q) != shape[0] or any(len(row) != shape[1] for row in q):
        raise ValueError(f"distribution shape != game shape {shape}")
    worst = math.inf
    for k, weights in enumerate((q, list(zip(*q)))):
        own = _own(game, k)
        # the expected gain of obeying rec instead of playing alt
        slacks = [sum(w * (a - b) for w, a, b in zip(weights[rec], own[rec], own[alt]))
                  for rec in range(len(own)) for alt in range(len(own)) if alt != rec]
        if slacks:
            worst = min(worst, min(slacks))
    if math.isinf(worst):
        worst = 0.0  # single-strategy players: nothing to deviate to
    return worst >= -tol, worst
