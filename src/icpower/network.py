"""Physical layer of the interference channel: gains, noise, SINR.

All quantities are linear (watts, not dB).  ``gains[j][k]`` is the power
gain from transmitter ``k`` to receiver ``j``; the diagonal holds the
direct links.  Players are indexed from 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = ["NetworkModel", "PowerProfile", "effective_gain", "sinr", "sinr_grid"]


@dataclass(frozen=True)
class NetworkModel:
    """An interference channel with one receiver per transmitter.

    Attributes:
        gains: K x K matrix of nonnegative link gains, ``gains[j][k]`` from
            transmitter k to receiver j.  Diagonal entries must be positive.
        noise_power: receiver noise power (W), > 0.
        processing_gain: despreading/processing gain, >= 1.
        power_cap: maximum transmit power per player (W), > 0.
        packet_bits: information bits per packet, >= 1.
        rate_scale: throughput scale (b/s), > 0.
    """

    gains: tuple[tuple[float, ...], ...]
    noise_power: float
    processing_gain: float
    power_cap: float
    packet_bits: int
    rate_scale: float

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(g) for g in row) for row in self.gains)
        object.__setattr__(self, "gains", rows)
        k = len(rows)
        if k < 2:
            raise ValueError("gains: need at least 2 players")
        if any(len(row) != k for row in rows):
            raise ValueError("gains: matrix must be square")
        for j, row in enumerate(rows):
            for i, g in enumerate(row):
                if g < 0:
                    raise ValueError(f"gains[{j}][{i}] must be >= 0")
                if not math.isfinite(g):
                    raise ValueError(f"gains[{j}][{i}] must be finite")
            if row[j] <= 0:
                raise ValueError(f"gains[{j}][{j}] (direct link) must be > 0")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be > 0")
        if not self.processing_gain >= 1:
            raise ValueError("processing_gain must be >= 1")
        if not self.power_cap > 0:
            raise ValueError("power_cap must be > 0")
        if not (type(self.packet_bits) is int and self.packet_bits >= 1):
            raise ValueError("packet_bits must be an integer >= 1")
        if not self.rate_scale > 0:
            raise ValueError("rate_scale must be > 0")
        for name in ("noise_power", "processing_gain", "power_cap", "rate_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def num_players(self) -> int:
        return len(self.gains)

    def gain_matrix(self) -> np.ndarray:
        return np.array(self.gains, dtype=float)


@dataclass(frozen=True)
class PowerProfile:
    """A vector of transmit powers, one per player (W)."""

    powers: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(s) for s in self.powers)
        object.__setattr__(self, "powers", vals)
        for i, s in enumerate(vals):
            if s < 0:
                raise ValueError(f"powers[{i}] must be >= 0")

    def __len__(self) -> int:
        return len(self.powers)

    def normalized(self, noise_power: float) -> tuple[float, ...]:
        """Powers expressed in noise units, s / sigma^2."""
        return tuple(s / noise_power for s in self.powers)


Powers = Union[PowerProfile, Sequence[float], np.ndarray]


def power_tuple(profile: Powers, num_players: int | None = None) -> tuple[float, ...]:
    """Coerce a profile-like argument to a tuple of floats."""
    if isinstance(profile, PowerProfile):
        vals = profile.powers
    else:
        vals = tuple(float(s) for s in profile)
    if num_players is not None and len(vals) != num_players:
        raise ValueError(
            f"profile has {len(vals)} entries, model has {num_players} players"
        )
    return vals


def _checked(model: NetworkModel, profile: Powers, k: int) -> tuple[float, ...]:
    """Coerce ``profile`` for ``model`` and check that k names a player."""
    s = power_tuple(profile, model.num_players)
    if not 0 <= k < model.num_players:
        raise IndexError(f"player index {k} out of range for {model.num_players} players")
    return s


def _sinr_per_watt(model: NetworkModel, s, k: int):
    """SINR per watt of player k, the package's one SINR expression.

    Arithmetic operators only: the entries of ``s`` may be floats or arrays.
    """
    row = model.gains[k]
    interference = sum(row[j] * s[j] for j in range(model.num_players) if j != k)
    return model.processing_gain * row[k] / (model.noise_power + interference)


def effective_gain(model: NetworkModel, profile: Powers, k: int) -> float:
    """Gain factor turning player k's own power into its SINR.

    Equals processing_gain * gains[k][k] / (noise + interference), where the
    interference sums the opponents' received powers at receiver k.  Does not
    depend on the k-th entry of ``profile``.
    """
    return _sinr_per_watt(model, _checked(model, profile, k), k)


def sinr(model: NetworkModel, profile: Powers, k: int) -> float:
    """Signal-to-interference-plus-noise ratio of player k at ``profile``."""
    s = _checked(model, profile, k)
    return _sinr_per_watt(model, s, k) * s[k]


def sinr_grid(model: NetworkModel, axis1: np.ndarray,
              axis2: np.ndarray) -> tuple[tuple, tuple]:
    """``(s1, s2), (gamma1, gamma2)`` on the 2-player grid axis1 x axis2:
    powers as a column and a row vector, SINRs ``[i, j]`` at
    ``(axis1[i], axis2[j])``."""
    s = (axis1[:, None], axis2[None, :])
    return s, tuple(_sinr_per_watt(model, s, k) * s[k] for k in range(2))
