"""Separation-triggered layer changes with random back-off arbitration.

A violated aircraft first waits out a back-off counter so that neighbours do
not vacate a layer simultaneously; hearing another switch request doubles
the counter range.  The climb itself is a closed-form bang-bang manoeuvre
that meets the altitude change and the speed change of the target layer at
the same instant while saturating the airframe acceleration budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airspace import ring_laps, ring_offset, ring_pairs

# The trace's mode codes; MODE_NAMES spells each one out.
MODE_CRUISE, MODE_SWITCHING, MODE_BACKING_OFF = 0, 1, 2
MODE_NAMES = ("Cruise", "Switching", "BackingOff")
BACKOFF_CAP = 32


def switch_probability(d_front, d_rear, d_safe, base_prob: float):
    """Trigger probability from the two gap checks, elementwise: 0, p, or min(2p, 1).

    One violated side makes a switch attractive; both sides violated doubles
    the urgency (capped at certainty).
    """
    if not 0.0 <= base_prob <= 0.5:
        raise ValueError("base probability must lie in [0, 0.5]")
    sides = np.less(d_front, d_safe).astype(int) + np.less(d_rear, d_safe)
    return np.minimum(sides * base_prob, 1.0)


def triggered(rows: np.ndarray, prob: np.ndarray, rngs) -> np.ndarray:
    """The ``rows`` whose one uniform draw on their own stream ``rngs[i]`` is under ``prob``."""
    return rows[np.array([rngs[i].random() for i in rows.tolist()]) < prob]


def target_layers(rows, fleet, released, window, course) -> np.ndarray:
    """Adjacent layer with the fewer residents within ``window`` of each of
    ``rows``; ties go up.  ``fleet`` holds the residents before the back-off
    pass: of the rows the pass ``released``, those at a higher row index
    still count, as in row order.  A resident is within the window when
    |ring_offset| <= window, tested on the ``ring_pairs`` candidates.
    """
    own = fleet.layer[rows]
    out = np.where(own == 2, 1, own + 1)
    mid = rows[own == 1]  # the only layer with a choice
    if len(mid) == 0:
        return out
    laps = ring_laps(fleet, course)
    counts = []
    for lay in (0, 2):
        k, j = ring_pairs(fleet, laps, lay, mid, window)
        i = mid[k]
        near = np.abs(ring_offset(fleet.x[j] - fleet.x[i], course)) <= window
        left = released[j] & (j < i)  # released earlier in the pass
        counts.append(np.bincount(k[near & ~left], minlength=len(mid)))
    down, up = counts
    out[own == 1] = np.where(down < up, 0, 2)
    return out


@dataclass
class SwitchPlan:
    """Bang-bang accelerations and duration for one layer change."""

    ax: float | np.ndarray
    ay: float | np.ndarray
    duration: float | np.ndarray


def optimal_switch_acceleration(
    v_from: float, v_to: float, altitude_change: float, max_accel: float
) -> SwitchPlan:
    """Accelerations, elementwise, that finish the climb and the speed change together.

    With dv = v_to - v_from and H the layer spacing, the vertical component
    solves ay^2 + dv^2/(4H) * ay = a_max^2 so that ax^2 + ay^2 = a_max^2,
    dv = ax * t and H = ay * t^2 / 4 under the symmetric bang-bang profile.
    """
    if np.any(np.less_equal(altitude_change, 0.0)):
        raise ValueError("altitude change must be positive")
    if np.any(np.less_equal(max_accel, 0.0)):
        raise ValueError("acceleration budget must be positive")
    dv = v_to - v_from
    h = altitude_change
    # dv^4 as a product: an array pow may round differently from CPU to CPU
    dv2 = dv * dv
    ay = (np.sqrt(dv2 * dv2 + 64.0 * h * h * max_accel * max_accel) - dv2) / (8.0 * h)
    ax = dv * np.sqrt(ay * h) / (2.0 * h)
    duration = np.sqrt(4.0 * h / ay)
    return SwitchPlan(ax=ax, ay=ay, duration=duration)


def switch_acceleration_profile(
    altitude: np.ndarray,
    start_altitude: np.ndarray,
    target_altitude: np.ndarray,
    ax: np.ndarray,
    ay: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Commanded (ax, ay) at ``altitude`` during the manoeuvre, elementwise.

    Vertical sign flips at the midpoint between the two layer altitudes:
    push toward the target in the first half, brake in the second.
    """
    midpoint = 0.5 * (start_altitude + target_altitude)
    going_up = target_altitude > start_altitude
    push = np.where(going_up, altitude < midpoint, altitude > midpoint)
    sign = np.where(going_up, 1.0, -1.0)
    return ax, np.where(push, sign, -sign) * ay


class SwitchState:
    """The fleet's layer-switch state, one row per aircraft.

    ``mode`` holds the trace's mode codes.  A backing-off row counts
    ``backoff`` ticks down inside a window of ``backoff_max``; a switching row
    flies the plan ``ax``/``ay`` toward layer ``target``.  ``target``, ``ax``
    and ``ay`` belong to the current attempt and go stale in Cruise.  Only
    the transitions here and in ``backoff_step`` write ``mode``.
    """

    def __init__(self, n: int, initial_backoff: int) -> None:
        self.initial_backoff = initial_backoff
        self.mode = np.full(n, MODE_CRUISE)
        self.backoff_max = np.full(n, initial_backoff)
        self.backoff = self.backoff_max.copy()
        self.target = np.full(n, -1)
        self.ax = np.zeros(n)
        self.ay = np.zeros(n)

    @property
    def resident(self) -> np.ndarray:
        """Rows not in the middle of a manoeuvre."""
        return self.mode != MODE_SWITCHING

    def arm(self, rows, targets, rngs) -> None:
        """Back ``rows`` off toward their ``targets``, each with a counter drawn
        from [1, ceiling] on its own stream ``rngs[i]``.

        The draw keeps aircraft triggered by the same congestion event from
        counting down in lockstep.
        """
        self.mode[rows] = MODE_BACKING_OFF
        self.target[rows] = targets
        ceilings = self.backoff_max[rows].tolist()
        self.backoff[rows] = [rngs[i].integers(1, m + 1) for i, m in zip(rows, ceilings)]

    def cancel(self, i: int) -> None:
        """Abandon a back-off; an escalated ceiling is kept."""
        self.mode[i] = MODE_CRUISE
        self.backoff[i] = self.backoff_max[i]

    def capture(
        self, h: np.ndarray, vy: np.ndarray, target_h: np.ndarray, band: float, speed: float
    ) -> np.ndarray:
        """Land the switching rows within ``band`` of their target altitude
        ``target_h`` and no faster than ``speed`` vertically; return them.

        Landing restores the initial ceiling.  Switches go to adjacent layers
        and the band is under half the spacing, so a captured aircraft is
        always past the midpoint.
        """
        rows = np.flatnonzero(
            (self.mode == MODE_SWITCHING) & (np.abs(h - target_h) <= band) & (np.abs(vy) <= speed)
        )
        self.mode[rows] = MODE_CRUISE
        self.backoff_max[rows] = self.initial_backoff
        self.backoff[rows] = self.initial_backoff
        return rows


def backoff_step(
    state: SwitchState,
    i: int,
    separation_restored: bool,
    foreign_request: bool,
    rng: np.random.Generator,
) -> bool:
    """Advance backing-off row ``i`` by one tick; True when it starts switching.

    A restored separation cancels the attempt outright.  A foreign switch
    request doubles the back-off range (capped) and redraws the counter.
    Otherwise the counter falls by one and releases the manoeuvre at zero.
    """
    if state.mode[i] != MODE_BACKING_OFF:
        raise ValueError("back-off only runs while backing off")
    if separation_restored:
        state.cancel(i)
        return False
    if foreign_request:
        ceiling = min(2 * int(state.backoff_max[i]), BACKOFF_CAP)
        state.backoff_max[i] = ceiling
        state.backoff[i] = rng.integers(1, ceiling + 1)
        return False
    state.backoff[i] -= 1
    if state.backoff[i] <= 0:
        state.mode[i] = MODE_SWITCHING
        return True
    return False
