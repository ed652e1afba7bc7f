"""Repeated play of the power game under a grim-trigger arrangement.

Players are meant to hold a cooperative profile (the social optimum); any
defection is met by permanent reversion to the static equilibrium.  The
module evaluates discounted utility streams, one-shot deviation values, and
the smallest discount factor that makes cooperation self-enforcing.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .config import SolverOutcomeError
from .continuous import best_response_ee, ee_utility
from .network import NetworkModel, PowerProfile, _Record

__all__ = [
    "TriggerPolicy",
    "DiscountSpec",
    "CooperationNotRationalError",
    "discounted_utility",
    "deviation_payoff",
    "min_discount",
    "simulate_trigger",
    "trigger_csv_rows",
]


class CooperationNotRationalError(SolverOutcomeError):
    """Cooperation pays no better than punishment; trigger logic is vacuous."""


class TriggerPolicy(_Record):
    """The two profiles of a grim trigger: hold the first, revert to the
    second forever after any defection."""

    __slots__ = ("cooperate_profile", "punish_profile")

    def __init__(self, cooperate_profile: PowerProfile, punish_profile: PowerProfile) -> None:
        self._set(cooperate_profile, punish_profile)

    def check_against(self, model: NetworkModel) -> None:
        for name, prof in (("cooperate_profile", self.cooperate_profile),
                           ("punish_profile", self.punish_profile)):
            for i, s in enumerate(prof.powers):
                if s > model.power_cap:
                    raise ValueError(f"{name}[{i}] exceeds power_cap")


class DiscountSpec(_Record):
    """Geometric discounting by a factor 0 <= delta < 1, infinite horizon."""

    __slots__ = ("delta",)

    def __init__(self, delta: float) -> None:
        self._set(delta)
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must be >= 0 and < 1")


def discounted_utility(stage_utilities: Sequence[float], spec: DiscountSpec) -> float:
    """Normalized value (1 - delta) * sum(delta^n * u_n) of a stream whose last
    entry repeats forever, in closed form: a constant stream is worth its stage
    value."""
    seq = [float(u) for u in stage_utilities]
    if not seq:
        raise ValueError("stage_utilities must be non-empty")
    d = spec.delta
    head = sum(d ** n * u for n, u in enumerate(seq[:-1]))
    return (1.0 - d) * head + d ** (len(seq) - 1) * seq[-1]


def _deviation_profile(model: NetworkModel, policy: TriggerPolicy, k: int) -> tuple[float, ...]:
    coop = policy.cooperate_profile.powers
    dev = list(coop)
    dev[k] = best_response_ee(model, coop, k)
    return tuple(dev)


def deviation_payoff(model: NetworkModel, policy: TriggerPolicy, k: int) -> float:
    """Best one-shot deviation value: player k's utility when it best-responds
    while the others still cooperate."""
    policy.check_against(model)
    return ee_utility(model, _deviation_profile(model, policy, k), k)


def _min_discount_from_utilities(u_dev: Sequence[float], u_coop: Sequence[float],
                                 u_punish: Sequence[float]) -> float:
    """Smallest delta at which no player gains from a one-shot deviation,
    from per-player utilities of equal length.

    Cooperation holds iff (1 - delta) * u_dev_k + delta * u_punish_k <=
    u_coop_k for every k, i.e. delta >= (u_dev_k - u_coop_k) /
    (u_dev_k - u_punish_k); the binding player sets the threshold.
    """
    threshold = 0.0
    for k, (dev, coop, punish) in enumerate(zip(u_dev, u_coop, u_punish)):
        if not coop > punish:
            raise CooperationNotRationalError(
                f"player {k + 1}: cooperation utility {coop} does not beat "
                f"punishment utility {punish}"
            )
        if dev > coop:
            threshold = max(threshold, (dev - coop) / (dev - punish))
    return threshold


def _utilities(model: NetworkModel, prof: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(ee_utility(model, prof, k) for k in (0, 1))


def min_discount(model: NetworkModel, policy: TriggerPolicy) -> float:
    """Minimum discount factor sustaining the policy's cooperative profile."""
    policy.check_against(model)
    u_coop = _utilities(model, policy.cooperate_profile.powers)
    u_punish = _utilities(model, policy.punish_profile.powers)
    u_dev = [ee_utility(model, _deviation_profile(model, policy, k), k) for k in (0, 1)]
    return _min_discount_from_utilities(u_dev, u_coop, u_punish)


def _trigger_path(model: NetworkModel, policy: TriggerPolicy,
                  deviant: Optional[int], deviate_at: int):
    """The trigger path by phase, as (profile, per-player utilities) pairs: the
    cooperation pair, the number of stages that hold it, then the pairs after
    them, the last repeating forever.  Each distinct profile is evaluated once."""
    policy.check_against(model)
    if deviant not in (None, 0, 1):
        raise IndexError(f"deviant index {deviant} out of range")
    if deviate_at < 0:
        raise ValueError("deviate_at must be >= 0")
    coop = policy.cooperate_profile.powers
    held = (coop, _utilities(model, coop))
    if deviant is None:
        return held, 0, [held]
    dev = _deviation_profile(model, policy, deviant)
    punish = policy.punish_profile.powers
    return held, deviate_at, [(dev, _utilities(model, dev)),
                              (punish, _utilities(model, punish))]


def simulate_trigger(model: NetworkModel, policy: TriggerPolicy, spec: DiscountSpec,
                     deviant: Optional[int] = None, deviate_at: int = 0,
                     ) -> tuple[float, ...]:
    """Per-player discounted utilities along the trigger path.

    With no deviant the path is constant cooperation; otherwise the deviant
    one-shot best-responds at stage ``deviate_at`` and everyone reverts to
    the punishment profile from the next stage on.  The N cooperation stages
    are worth (1 - delta^N) u_coop, in closed form.
    """
    (_, u_held), held_for, after = _trigger_path(model, policy, deviant, deviate_at)
    # delta^N is 0.0 for every N >= 2**64 and delta < 1, and float(N) may overflow
    lead = spec.delta ** min(held_for, 2 ** 64)
    return tuple((1.0 - lead) * u_held[k]
                 + lead * discounted_utility([u[k] for _, u in after], spec)
                 for k in (0, 1))


def trigger_csv_rows(model: NetworkModel, policy: TriggerPolicy, spec: DiscountSpec,
                     deviant: Optional[int] = None, deviate_at: int = 0,
                     stages: int = 20) -> tuple[list[str], list[list]]:
    """Stage-by-stage trigger trace with running discounted sums."""
    held, held_for, after = _trigger_path(model, policy, deviant, deviate_at)
    header = ["stage", "s_1", "s_2", "u_1", "u_2", "disc_u_1", "disc_u_2"]
    running = [0.0, 0.0]
    rows = []
    for n in range(stages):
        prof, stage_u = held if n < held_for else after[min(n - held_for, len(after) - 1)]
        for k in (0, 1):
            running[k] += spec.delta ** n * stage_u[k]
        rows.append([n, *prof, *stage_u, *running])
    return header, rows
