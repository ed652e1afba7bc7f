"""Finite strategic-form games: payoff tensors, dominance, pure equilibria.

Strategies are transmit power levels; the two bundled constructions are the
near-far scenario (one strong, one weak transmitter) and the symmetric
on/off scenario where both links share one gain.  Joint profiles are tuples
of per-player strategy indices, player 0 first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .config import FiniteGameParams
from .network import NetworkModel, sinr_grid

__all__ = [
    "FiniteGame",
    "FiniteGameParams",
    "JointDistribution",
    "Elimination",
    "build_nfe_game",
    "build_ic_game",
    "payoff",
    "strictly_dominated",
    "iterated_dominance",
    "best_responses_finite",
    "pure_nash",
    "is_correlated_equilibrium",
]

# Success threshold comparisons allow this relative slack: the on/off games
# place the lone transmitter exactly at the required SINR, and rounding in
# the power level must not flip that case to a failure.
_THRESHOLD_RTOL = 1e-9


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FiniteGame:
    """A finite game: per-player strategy lists plus a payoff tensor.

    ``payoffs`` is a read-only array with one axis per player (player 0
    outermost) and a trailing axis holding the per-player utility vector.
    Games compare by value and are not hashable.
    """

    strategies: tuple[tuple[float, ...], ...]
    payoffs: np.ndarray

    def __post_init__(self) -> None:
        strategies = tuple(tuple(float(v) for v in row) for row in self.strategies)
        if not strategies or any(not row for row in strategies):
            raise ValueError("every player needs at least one strategy")
        object.__setattr__(self, "strategies", strategies)
        arr = _read_only(self.payoffs)
        shape = tuple(len(row) for row in strategies) + (len(strategies),)
        if arr.shape != shape:
            raise ValueError(f"payoff tensor shape {arr.shape} != expected {shape}")
        object.__setattr__(self, "payoffs", arr)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteGame) and self.strategies == other.strategies
                and np.array_equal(self.payoffs, other.payoffs))

    @property
    def num_players(self) -> int:
        return len(self.strategies)

    def profile_values(self, joint_index: Sequence[int]) -> tuple[float, ...]:
        """Map a joint strategy-index tuple to the power levels it selects."""
        return tuple(self.strategies[k][i] for k, i in enumerate(joint_index))

    def to_json_dict(self) -> dict:
        return {"strategies": [list(r) for r in self.strategies],
                "payoffs": self.payoffs.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteGame":
        return cls(strategies=tuple(tuple(r) for r in data["strategies"]),
                   payoffs=data["payoffs"])


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A probability distribution over joint strategy profiles, held as a
    read-only array."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        arr = _read_only(self.probabilities)
        if (arr < 0).any():
            raise ValueError("probabilities must be >= 0")
        total = float(arr.sum())
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"probabilities must sum to 1 (got {total})")
        object.__setattr__(self, "probabilities", arr)

    @classmethod
    def point_mass(cls, shape: Sequence[int], joint_index: Sequence[int]) -> "JointDistribution":
        return cls.uniform_over(shape, [joint_index])

    @classmethod
    def uniform_over(cls, shape: Sequence[int],
                     joint_indices: Iterable[Sequence[int]]) -> "JointDistribution":
        arr = np.zeros(tuple(shape))
        idx = list(joint_indices)
        if not idx:
            raise ValueError("need at least one profile")
        for j in idx:
            arr[tuple(j)] = 1.0 / len(idx)
        return cls(probabilities=arr)


@dataclass(frozen=True)
class Elimination:
    """One dominance-elimination step: who lost what to what."""

    round: int
    player: int
    strategy: float
    dominator: float


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
    model = replace(model, power_cap=p)
    levels = np.array([0.0, model.power_cap])
    powers, gammas = sinr_grid(model, levels)
    payoffs = [np.where(gamma >= req * (1.0 - _THRESHOLD_RTOL), t, 0.0) - c * s / p
               for s, gamma in zip(np.broadcast_arrays(*powers), gammas)]
    return FiniteGame(strategies=((0.0, p), (0.0, p)), payoffs=np.stack(payoffs, axis=-1))


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


def _check_joint(game: FiniteGame, idx: tuple[int, ...]) -> None:
    if len(idx) != game.num_players:
        raise IndexError(f"joint index has {len(idx)} entries for {game.num_players} players")
    for k, i in enumerate(idx):
        if not 0 <= i < len(game.strategies[k]):
            raise IndexError(f"strategy index {i} out of range for player {k}")


def payoff(game: FiniteGame, joint_index: Sequence[int]) -> tuple[float, ...]:
    """Utility vector at a joint strategy-index profile."""
    idx = tuple(joint_index)
    _check_joint(game, idx)
    return tuple(game.payoffs[idx].tolist())


def _own(payoffs: np.ndarray, k: int) -> np.ndarray:
    """Player k's payoffs with k's strategy on axis 0, opponents after it."""
    return np.moveaxis(payoffs[..., k], k, 0)


def strictly_dominated(game: FiniteGame, k: int, strat_index: int) -> tuple[bool, int | None]:
    """Whether some single alternative beats ``strat_index`` against every
    opponent profile.  Returns (dominated, first dominating index or None)."""
    if not 0 <= k < game.num_players:
        raise IndexError(f"player index {k} out of range")
    if not 0 <= strat_index < len(game.strategies[k]):
        raise IndexError(f"strategy index {strat_index} out of range for player {k}")
    own = _own(game.payoffs, k)
    beats = (own > own[strat_index]).reshape(len(own), -1).all(axis=1)
    beats[strat_index] = False
    hits = np.flatnonzero(beats)
    return (True, int(hits[0])) if hits.size else (False, None)


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
            dominated, alt = strictly_dominated(game, k, i)
            if dominated:
                break
        else:
            return game, log
        row = game.strategies[k]
        log.append(Elimination(round=len(log) + 1, player=k, strategy=row[i], dominator=row[alt]))
        strategies = game.strategies[:k] + (row[:i] + row[i + 1:],) + game.strategies[k + 1:]
        game = FiniteGame(strategies=strategies, payoffs=np.delete(game.payoffs, i, axis=k))


def best_responses_finite(game: FiniteGame, k: int, opp_profile: Sequence[int]) -> set[int]:
    """All utility-maximizing strategy indices of player k against fixed
    opponent indices (ties kept)."""
    opp = tuple(opp_profile)
    if len(opp) != game.num_players - 1:
        raise IndexError(f"opponent profile needs {game.num_players - 1} entries")
    _check_joint(game, opp[:k] + (0,) + opp[k:])
    values = _own(game.payoffs, k)[(slice(None),) + opp]
    return set(np.flatnonzero(values == values.max()).tolist())


def pure_nash(game: FiniteGame) -> set[tuple[int, ...]]:
    """All joint index profiles where every player plays a best response."""
    stable = np.ones(game.payoffs.shape[:-1], dtype=bool)
    for k in range(game.num_players):
        u = game.payoffs[..., k]
        stable &= u == u.max(axis=k, keepdims=True)
    return set(map(tuple, np.argwhere(stable).tolist()))


def is_correlated_equilibrium(game: FiniteGame, dist: JointDistribution,
                              tol: float = 1e-9) -> tuple[bool, float]:
    """Check the obedience inequalities of a recommendation distribution.

    For every player k and every pair (recommended, alternative) of its
    strategies, the expected gain of obeying, weighted by the distribution,
    must be >= -tol.  Returns (holds, worst slack).
    """
    q = dist.probabilities
    shape = game.payoffs.shape[:-1]
    if q.shape != shape:
        raise ValueError(f"distribution shape {q.shape} != game shape {shape}")
    worst = math.inf
    for k in range(game.num_players):
        own, weight = _own(game.payoffs, k), np.moveaxis(q, k, 0)
        n_k = len(own)
        # slack[rec, alt]: expected gain of obeying rec instead of playing alt
        gain = weight[:, None] * (own[:, None] - own[None, :])
        slack = gain.reshape(n_k, n_k, -1).sum(axis=2)
        off_diagonal = slack[~np.eye(n_k, dtype=bool)]
        if off_diagonal.size:
            # + 0.0 turns a -0.0 sum into 0.0, as a sum started at 0 gives
            worst = min(worst, float(off_diagonal.min()) + 0.0)
    if math.isinf(worst):
        worst = 0.0  # single-strategy players: nothing to deviate to
    return worst >= -tol, worst
