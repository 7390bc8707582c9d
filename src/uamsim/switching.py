"""Separation-triggered layer changes with random back-off arbitration.

A violated aircraft first waits out a back-off counter so that neighbours do
not vacate a layer simultaneously; hearing another switch request doubles
the counter range.  The climb itself is a closed-form bang-bang manoeuvre
that meets the altitude change and the speed change of the target layer at
the same instant while saturating the airframe acceleration budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

BACKOFF_CAP = 32


class SwitchPhase(Enum):
    IDLE = "Idle"
    PENDING = "Pending"
    ACCEL = "Accel"
    DECEL = "Decel"


def switch_probability(
    d_front: float, d_rear: float, d_safe: float, base_prob: float
) -> float:
    """Trigger probability from the two gap checks: 0, p, or min(2p, 1).

    One violated side makes a switch attractive; both sides violated doubles
    the urgency (capped at certainty).
    """
    if not 0.0 <= base_prob <= 0.5:
        raise ValueError("base probability must lie in [0, 0.5]")
    n = int(d_front < d_safe) + int(d_rear < d_safe)
    if n == 0:
        return 0.0
    if n == 1:
        return base_prob
    return min(2.0 * base_prob, 1.0)


@dataclass
class SwitchPlan:
    """Bang-bang accelerations and duration for one layer change."""

    ax: float
    ay: float
    duration: float


def optimal_switch_acceleration(
    v_from: float, v_to: float, altitude_change: float, max_accel: float
) -> SwitchPlan:
    """Accelerations that finish the climb and the speed change together.

    With dv = v_to - v_from and H the layer spacing, the vertical component
    solves ay^2 + dv^2/(4H) * ay = a_max^2 so that ax^2 + ay^2 = a_max^2,
    dv = ax * t and H/4... specifically the half-climb H covers
    ay * t^2 / 4 under the symmetric bang-bang profile.
    """
    if altitude_change <= 0.0:
        raise ValueError("altitude change must be positive")
    if max_accel <= 0.0:
        raise ValueError("acceleration budget must be positive")
    dv = v_to - v_from
    h = altitude_change
    ay = (math.sqrt(dv**4 + 64.0 * h * h * max_accel * max_accel) - dv * dv) / (8.0 * h)
    ax = dv * math.sqrt(ay * h) / (2.0 * h)
    duration = math.sqrt(4.0 * h / ay)
    return SwitchPlan(ax=ax, ay=ay, duration=duration)


def switch_acceleration_profile(
    altitude: float,
    start_altitude: float,
    target_altitude: float,
    plan: SwitchPlan,
) -> tuple[float, float]:
    """Commanded acceleration at ``altitude`` during the manoeuvre.

    Vertical sign flips at the midpoint between the two layer altitudes:
    push toward the target in the first half, brake in the second.
    """
    midpoint = 0.5 * (start_altitude + target_altitude)
    going_up = target_altitude > start_altitude
    if going_up:
        ay = plan.ay if altitude < midpoint else -plan.ay
    else:
        ay = -plan.ay if altitude > midpoint else plan.ay
    return (plan.ax, ay)


@dataclass
class SwitchAutomaton:
    """Back-off and manoeuvre bookkeeping for one aircraft."""

    initial_backoff: int = 2
    phase: SwitchPhase = SwitchPhase.IDLE
    backoff_max: int = 2
    backoff: int = 2
    target_layer: int = -1
    plan: SwitchPlan | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.initial_backoff <= BACKOFF_CAP:
            raise ValueError("initial back-off must lie in [1, cap]")
        self.backoff_max = self.initial_backoff
        self.backoff = self.backoff_max

    def arm(self, target_layer: int, rng: np.random.Generator | None = None) -> None:
        """Enter Pending with a freshly drawn back-off counter.

        Without a generator the counter starts at the ceiling, which is the
        worst case; passing one draws uniformly from [1, ceiling] so that
        aircraft triggered by the same congestion event do not count down in
        lockstep.
        """
        self.phase = SwitchPhase.PENDING
        self.target_layer = target_layer
        if rng is None:
            self.backoff = self.backoff_max
        else:
            self.backoff = int(rng.integers(1, self.backoff_max + 1))

    def cancel(self) -> None:
        """Abandon a pending attempt; an escalated ceiling is kept."""
        self.phase = SwitchPhase.IDLE
        self.backoff = self.backoff_max
        self.target_layer = -1
        self.plan = None

    def reset(self) -> None:
        """Return to Idle with the ceiling back at its initial value."""
        self.phase = SwitchPhase.IDLE
        self.backoff_max = self.initial_backoff
        self.backoff = self.backoff_max
        self.target_layer = -1
        self.plan = None


def backoff_step(
    auto: SwitchAutomaton,
    separation_restored: bool,
    foreign_request: bool,
    rng: np.random.Generator,
) -> bool:
    """Advance a Pending automaton by one tick; True when it fires Accel.

    A restored separation cancels the attempt outright.  A foreign switch
    request doubles the back-off range (capped) and redraws the counter.
    Otherwise the counter falls by one and releases the manoeuvre at zero.
    """
    if auto.phase is not SwitchPhase.PENDING:
        raise ValueError("back-off only runs in the Pending phase")
    if separation_restored:
        auto.cancel()
        return False
    if foreign_request:
        auto.backoff_max = min(2 * auto.backoff_max, BACKOFF_CAP)
        auto.backoff = int(rng.integers(1, auto.backoff_max + 1))
        return False
    auto.backoff -= 1
    if auto.backoff <= 0:
        auto.phase = SwitchPhase.ACCEL
        return True
    return False
