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

# NumPy's SeedSequence hash constants (O'Neill's seed_seq design)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _u64(value: int) -> np.ndarray:
    # a 0-d array: cheaper per operation on small arrays than a NumPy scalar
    return np.array(value, dtype=np.uint64)


# PCG64's 128-bit multiplier as high and low words, its low word's 32-bit
# limbs, and the shift counts of the stream arithmetic
_PCG_HI, _PCG_LO = _u64(2549297995355413924), _u64(4865540595714422341)
_LOW32, _SHIFT32 = _u64(_MASK32), _u64(32)
_PCG_LO0, _PCG_LO1 = _PCG_LO & _LOW32, _PCG_LO >> _SHIFT32
_1, _11, _58, _63, _64, _TWO32 = (_u64(v) for v in (1, 11, 58, 63, 64, 2**32))


def _hashmix(value, const):
    """SeedSequence's hashmix of a 32-bit word (an int or a uint32 array);
    returns the mixed word and the next hash constant."""
    const, value = const * _MULT_A & _MASK32, value ^ const
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step on 128-bit states held as high and low uint64 words;
    the high word of lo * multiplier comes from 32-bit limbs, no partial sum
    of which can pass 2**64."""
    a0, a1 = lo & _LOW32, lo >> _SHIFT32
    mid = a1 * _PCG_LO0 + (a0 * _PCG_LO0 >> _SHIFT32)
    low_mid = a0 * _PCG_LO1 + (mid & _LOW32)
    carry = a1 * _PCG_LO1 + (mid >> _SHIFT32) + (low_mid >> _SHIFT32)
    lo_out = lo * _PCG_LO + inc_lo
    hi_out = carry + lo * _PCG_HI + hi * _PCG_LO + inc_hi + (lo_out < inc_lo)
    return hi_out, lo_out


class Streams:
    """One PCG64 stream per row, held as arrays: bit for bit the draws of
    ``Generator(PCG64(c))`` for child ``c = SeedSequence(seed).spawn(n)[i]``
    on row ``i``, so a stream belongs to the row, never to an id value.

    Seeding replicates the seed sequence's hashing once for the run entropy
    and once, as array steps, for the spawn keys 0..n-1.  ``word`` and
    ``has_word`` are NumPy's one-word buffer of the upper 32 bits of a
    64-bit output, which ``integers`` reads first and ``random`` leaves.
    The draws depend only on the SeedSequence hashing and on PCG64's step
    and XSL-RR output (O'Neill, HMC-CS-2014-0905), which NumPy's NEP 19
    keeps stable; ``Generator``'s methods it does not.
    """

    def __init__(self, seed: int, n: int) -> None:
        if seed < 0:
            raise ValueError("a stream seed must be non-negative")
        run = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
        run += [0] * (4 - len(run))  # padded to the pool ahead of a spawn key
        pool, const = [], _INIT_A
        for word in run[:4]:
            word, const = _hashmix(word, const)
            pool.append(word)
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    word, const = _hashmix(pool[src], const)
                    pool[dst] = _mix(pool[dst], word)
        for word in [*run[4:], np.arange(n, dtype=np.uint32)]:  # the spawn key last
            for dst in range(4):
                hashed, const = _hashmix(word, const)
                pool[dst] = _mix(pool[dst], hashed)
        # generate_state(4, uint64): eight words cycling the pool, little end first
        words, const = [], _INIT_B
        for k in range(8):
            word = pool[k % 4] ^ const
            const = const * _MULT_B & _MASK32
            word = word * const & _MASK32
            words.append(np.asarray(word ^ word >> 16, dtype=np.uint64))
        s_hi, s_lo, q_hi, q_lo = (words[k] | words[k + 1] << _SHIFT32 for k in range(0, 8, 2))
        # PCG64's seeding: an odd increment from the sequence word, state =
        # step(step(0) + seed)
        self.inc_hi = q_hi << _1 | q_lo >> _63
        self.inc_lo = q_lo << _1 | _1
        lo = self.inc_lo + s_lo
        self.hi, self.lo = _step(self.inc_hi + s_hi + (lo < s_lo), lo, self.inc_hi, self.inc_lo)
        self.word = np.zeros(n, dtype=np.uint64)
        self.has_word = np.zeros(n, dtype=bool)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        """Advance ``rows`` one step; their XSL-RR outputs."""
        hi, lo = _step(self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        x, rot = hi ^ lo, hi >> _58
        return x >> rot | x << (_64 - rot & _63)

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """One 32-bit word per row: the buffered word, or the low half of a
        fresh output whose high half is buffered."""
        out = self.word[rows]
        fresh = ~self.has_word[rows]
        self.has_word[rows] = fresh
        if fresh.any():
            full = self._next64(rows[fresh])
            out[fresh] = full & _LOW32
            self.word[rows[fresh]] = full >> _SHIFT32
        return out

    def random(self, rows: np.ndarray) -> np.ndarray:
        """One double in [0, 1) per row, ``Generator.random()``'s 53 bits."""
        return (self._next64(rows) >> _11) * 2.0**-53

    def integers(self, rows, ceilings) -> np.ndarray:
        """One draw from [1, ceiling] per row, ``Generator.integers(1,
        ceiling + 1)`` for ceilings up to 2**32: Lemire's bounded method on
        32-bit words (ACM TOMACS 2019).  A ceiling of 1 consumes no word, and
        only the rejected rows redraw."""
        rows = np.asarray(rows, dtype=np.intp)
        ceilings = np.asarray(ceilings, dtype=np.uint64)
        out = np.ones(len(rows), dtype=np.int64)
        pending = np.flatnonzero(ceilings > 1)
        while len(pending):
            c = ceilings[pending]
            m = self._next32(rows[pending]) * c
            kept = m & _LOW32 >= (_TWO32 - c) % c
            out[pending[kept]] += (m[kept] >> _SHIFT32).astype(np.int64)
            pending = pending[~kept]
        return out


def switch_probability(d_front, d_rear, d_safe, base_prob: float):
    """Trigger probability from the two gap checks, elementwise: 0, p, or min(2p, 1).

    One violated side makes a switch attractive; both sides violated doubles
    the urgency (capped at certainty).
    """
    if not 0.0 <= base_prob <= 0.5:
        raise ValueError("base probability must lie in [0, 0.5]")
    sides = np.less(d_front, d_safe).astype(int) + np.less(d_rear, d_safe)
    return np.minimum(sides * base_prob, 1.0)


def triggered(rows: np.ndarray, prob: np.ndarray, streams: Streams) -> np.ndarray:
    """The ``rows`` whose one uniform draw on their own stream is under ``prob``."""
    return rows[streams.random(rows) < prob]


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
    ``backoff`` ticks down inside a window of ``backoff_max``; its counter
    is 0 from its arming or escalation until ``draw`` draws it, at the end
    of the tick.  A switching row flies the plan ``ax``/``ay`` toward layer
    ``target``.  ``target``, ``ax`` and ``ay`` belong to the current attempt
    and go stale in Cruise.  Only the transitions here and in
    ``backoff_step`` write ``mode``.
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

    def arm(self, rows, targets, streams: Streams) -> None:
        """Back ``rows`` off toward their ``targets``, then ``draw`` their
        counters together with those of the rows escalated this tick.

        The draw keeps aircraft triggered by the same congestion event from
        counting down in lockstep.
        """
        self.mode[rows] = MODE_BACKING_OFF
        self.target[rows] = targets
        self.backoff[rows] = 0
        self.draw(streams)

    def draw(self, streams: Streams) -> None:
        """Draw every backing-off counter still at 0 from [1, ceiling], each
        on its row's own stream, in one call."""
        rows = np.flatnonzero((self.mode == MODE_BACKING_OFF) & (self.backoff == 0))
        if len(rows):
            self.backoff[rows] = streams.integers(rows, self.backoff_max[rows])

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
    state: SwitchState, i: int, separation_restored: bool, foreign_request: bool
) -> bool:
    """Advance backing-off row ``i`` by one tick; True when it starts switching.

    A restored separation cancels the attempt outright.  A foreign switch
    request doubles the back-off range (capped) and zeroes the counter for
    ``SwitchState.draw`` to redraw.  Otherwise the counter falls by one and
    releases the manoeuvre at zero.
    """
    if state.mode[i] != MODE_BACKING_OFF:
        raise ValueError("back-off only runs while backing off")
    if separation_restored:
        state.cancel(i)
        return False
    if foreign_request:
        ceiling = min(2 * int(state.backoff_max[i]), BACKOFF_CAP)
        state.backoff_max[i] = ceiling
        state.backoff[i] = 0
        return False
    state.backoff[i] -= 1
    if state.backoff[i] <= 0:
        state.mode[i] = MODE_SWITCHING
        return True
    return False
