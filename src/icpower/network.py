"""Physical layer of the interference channel: gains, noise, SINR.

All quantities are linear (watts, not dB).  ``gains[j][k]`` is the power
gain from transmitter ``k`` to receiver ``j``; the diagonal holds the
direct links.  Players are indexed from 0.
"""
from __future__ import annotations

import math
from typing import Sequence, Union

__all__ = ["NetworkModel", "PowerProfile", "SolverOutcomeError", "effective_gain", "sinr"]


class SolverOutcomeError(ValueError):
    """A valid config has no answer of the kind asked for; the CLI exits 3."""


class _Record:
    """Base of the package's frozen value types.

    A subclass names its fields in ``__slots__`` and sets them in ``__init__``
    with ``_set``.  Its instances then refuse assignment, compare equal and
    hash by type and field values, and print as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, not setattr
        return type(self), self._values()


class NetworkModel(_Record):
    """An interference channel with one receiver per transmitter.

    Attributes:
        gains: 2 x 2 matrix of nonnegative link gains, ``gains[j][k]`` from
            transmitter k to receiver j.  Diagonal entries must be positive.
        noise_power: receiver noise power (W), > 0.
        processing_gain: despreading/processing gain, >= 1, with
            processing_gain * gains[j][j] / noise_power finite.
        power_cap: maximum transmit power per player (W), > 0.
        packet_bits: bits per packet, from 2 to 2**53 (at 1 the efficiency has no optimum).
        rate_scale: throughput scale (b/s), > 0, with noise_power / rate_scale
            and rate_scale * processing_gain * gains[j][j] / noise_power, the
            bound on player j's utility, finite.
    """

    __slots__ = ("gains", "noise_power", "processing_gain", "power_cap", "packet_bits",
                 "rate_scale")

    def __init__(self, gains: Sequence[Sequence[float]], noise_power: float,
                 processing_gain: float, power_cap: float, packet_bits: int,
                 rate_scale: float) -> None:
        rows = tuple(tuple(float(g) for g in row) for row in gains)
        self._set(rows, noise_power, processing_gain, power_cap, packet_bits, rate_scale)
        if len(rows) != 2:
            raise ValueError(f"gains: need exactly 2 players, got {len(rows)}")
        if any(len(row) != 2 for row in rows):
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
        # the solvers multiply floats by L, which a float holds exactly up to 2**53
        if not (type(self.packet_bits) is int and 2 <= self.packet_bits <= 2 ** 53):
            raise ValueError("packet_bits must be an integer from 2 to 2**53")
        if not self.rate_scale > 0:
            raise ValueError("rate_scale must be > 0")
        for name in ("noise_power", "processing_gain", "power_cap", "rate_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not math.isfinite(self.utility_scale):
            raise ValueError("noise_power / rate_scale must be finite")
        for j, row in enumerate(rows):  # the SINR per watt free of interference
            if not math.isfinite(self.processing_gain * row[j] / self.noise_power):
                raise ValueError(f"processing_gain * gains[{j}][{j}] / noise_power "
                                 f"must be finite")
            if not math.isfinite(_utility_bound(self, j)):
                raise ValueError(f"rate_scale * processing_gain * gains[{j}][{j}] "
                                 f"/ noise_power must be finite")

    @property
    def utility_scale(self) -> float:
        """noise_power / rate_scale, which turns a utility into noise units."""
        return self.noise_power / self.rate_scale


class PowerProfile(_Record):
    """A pair of transmit powers, one per player (W)."""

    __slots__ = ("powers",)

    def __init__(self, powers: Powers) -> None:
        self._set(power_tuple(powers))

    def normalized(self, noise_power: float) -> tuple[float, ...]:
        """Powers expressed in noise units, s / sigma^2."""
        return tuple(s / noise_power for s in self.powers)


Powers = Union[PowerProfile, Sequence[float]]


def power_tuple(profile: Powers) -> tuple[float, float]:
    """Coerce a profile-like argument to a pair of floats, each >= 0 and finite."""
    if isinstance(profile, PowerProfile):
        vals = profile.powers
    else:
        vals = tuple(map(float, profile))
        for s in vals:
            if not 0.0 <= s < math.inf:  # one test catches negative, NaN and inf
                what = ">= 0" if math.isfinite(s) else "finite"
                # index tests identity before ==, so it finds a NaN too
                raise ValueError(f"powers[{vals.index(s)}] must be {what}")
    if len(vals) != 2:
        raise ValueError(f"profile has {len(vals)} entries, model has 2 players")
    return vals


def _utility_bound(model: NetworkModel, k: int) -> float:
    """rate_scale * processing_gain * gains[k][k] / noise_power: player k's
    utility is at most this, since SINR per watt <= W * g_kk / noise and
    throughput(gamma) / gamma <= rate_scale."""
    return model.rate_scale * model.processing_gain * model.gains[k][k] / model.noise_power


def _checked(model: NetworkModel, profile: Powers, k: int) -> tuple[float, ...]:
    """Coerce ``profile`` for ``model`` and check that k names a player."""
    s = power_tuple(profile)
    if k not in (0, 1):
        raise IndexError(f"player index {k} out of range for 2 players")
    return s


def _sinr_per_watt(model: NetworkModel, s, k: int):
    """SINR per watt of player k, W * g_kk / (noise + g_kj * s_j) with j = 1 - k,
    the package's one SINR expression.

    Arithmetic operators only: the entries of ``s`` may be floats or arrays.
    """
    row, j = model.gains[k], 1 - k
    return model.processing_gain * row[k] / (model.noise_power + row[j] * s[j])


def effective_gain(model: NetworkModel, profile: Powers, k: int) -> float:
    """Gain factor turning player k's own power into its SINR.

    Equals processing_gain * gains[k][k] / (noise + interference), where the
    interference is the opponent's received power at receiver k.  Does not
    depend on the k-th entry of ``profile``.
    """
    return _sinr_per_watt(model, _checked(model, profile, k), k)


def sinr(model: NetworkModel, profile: Powers, k: int) -> float:
    """Signal-to-interference-plus-noise ratio of player k at ``profile``."""
    s = _checked(model, profile, k)
    return _sinr_per_watt(model, s, k) * s[k]

