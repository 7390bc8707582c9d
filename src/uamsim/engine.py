"""Deterministic tick loop that couples flight control with the comm planner.

Flight control, separation checks and layer-switch arbitration run every
tick; the surface phases and the pair position plan refresh on the larger
communication interval.  All randomness flows through per-aircraft seeded
streams and the planner is exact, so a scenario with a fixed seed reproduces
its trace byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .airspace import (
    AirspaceConfig,
    Fleet,
    fleet_state,
    nonfinite,
)
from .fields import NO_GOALS, FieldWeights, Goals, force
# pso_minimize is not called here; it stays bound because the benchmark's
# tracer (perfbench/tracing.py) wraps it in this namespace.
from .planner import PlanningQuery, pso_minimize, pso_optimize  # noqa: F401
from .ris import (
    ChannelParams,
    RowPhases,
    ZeroLengthPath,
    aligned_snr,
    capacity,
    grid_steps,
    optimal_phase_shift,
    quantize_config,
    snr,
    steering_rows,
)
from .switching import (
    BACKOFF_CAP,
    MODE_BACKING_OFF,
    MODE_CRUISE,
    MODE_NAMES,
    MODE_SWITCHING,
    Streams,
    SwitchState,
    backoff_step,
    optimal_switch_acceleration,
    switch_acceleration_profile,
    switch_probability,
    target_layers,
    triggered,
)
from .textfmt import float_cells, float_words, text_words


class PhaseMode(Enum):
    CONTINUOUS = "continuous"
    QUANTIZED = "quantized"
    ZERO = "zero"


@dataclass(frozen=True)
class AircraftSpec:
    """Initial placement of one aircraft."""

    aircraft_id: int
    layer: int
    x: float
    speed_offset: float = 0.0
    altitude_offset: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """Complete, self-contained description of one simulation run.

    ``switch_prob`` 0 flies without layer switching.  ``ris_pos`` fixes the
    surface there; none carries it on the low-layer relay.
    """

    name: str = "custom"
    airspace: AirspaceConfig = field(default_factory=AirspaceConfig)
    channel: ChannelParams = field(default_factory=ChannelParams)
    weights: FieldWeights = field(default_factory=FieldWeights)
    aircraft: tuple[AircraftSpec, ...] = ()
    dt: float = 0.1
    comm_interval: int = 5
    duration_s: float = 40.0
    seed: int = 1
    switch_prob: float = 0.4
    initial_backoff: int = 2
    neighbor_radius_m: float = 300.0
    target_window_m: float = 500.0
    ris_pos: tuple[float, float] | None = None
    bs_pos: tuple[float, float] = (0.0, 0.0)
    ris_elements: int = 1024
    phase_mode: PhaseMode = PhaseMode.QUANTIZED
    phase_resolution: float = 1.0 / 12.0
    capture_band_m: float = 2.0
    capture_speed_mps: float = 1.0
    intrusion_threshold_s: float = 0.3

    def __post_init__(self) -> None:
        # one roster order, by id: the engine's rows and the saved file follow it
        by_id = tuple(sorted(self.aircraft, key=lambda a: a.aircraft_id))
        object.__setattr__(self, "aircraft", by_id)

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """``validate_scenario``'s findings, kept: a scenario does not change,
        so a command that checks its scenarios before it runs them validates
        each once."""
        return tuple(validate_scenario(self))


# The float fields of an aircraft, in field order.
_ROSTER_FLOATS = ("x", "speed_offset", "altitude_offset")


def validate_scenario(sc: Scenario) -> list[str]:
    """Collect every configuration problem instead of failing on the first."""
    ranged = ("dt", "duration_s", "bs_pos", "ris_pos")  # checked below with their ranges
    problems = [f"{name} must be finite" for name in nonfinite(sc) if name not in ranged]
    if sc.name != sc.name.strip() or "\n" in sc.name or "\r" in sc.name:
        problems.append("name must not have outer whitespace or a line break")
    if not 0.0 < sc.dt < math.inf:
        problems.append("dt must be positive and finite")
    elif sc.dt < 1e-9:
        problems.append("dt must be at least 1e-9 s, the finest step 9 decimals print")
    if sc.comm_interval < 1:
        problems.append("comm interval must be at least one tick")
    if not 0.0 < sc.duration_s < math.inf:
        problems.append("duration must be positive and finite")
    elif 0.0 < sc.dt < math.inf:
        ticks = sc.duration_s / sc.dt  # inf when dt is tiny enough
        whole = math.isfinite(ticks) and abs(ticks - round(ticks)) <= 1e-9 * ticks
        if not whole or round(ticks) < 1:
            problems.append("duration must be a whole number of ticks, at least one")
    if any(len(p) != 2 or not np.all(np.isfinite(p)) for p in (sc.bs_pos, sc.ris_pos) if p is not None):
        problems.append("base station and surface positions must be two finite numbers")
    if sc.seed < 0:
        problems.append("seed must be non-negative")
    if not 0.0 <= sc.switch_prob <= 0.5:
        problems.append("switch probability must lie in [0, 0.5]")
    if not 1 <= sc.initial_backoff <= BACKOFF_CAP:
        problems.append(f"initial back-off must lie in [1, {BACKOFF_CAP}]")
    if sc.neighbor_radius_m <= 0.0 or sc.target_window_m <= 0.0:
        problems.append("interaction radii must be positive")
    try:
        steering_rows(sc.ris_elements)
    except ValueError as exc:
        problems.append(f"surface {exc}")
    if sc.phase_mode is PhaseMode.QUANTIZED and math.isfinite(sc.phase_resolution):
        try:
            grid_steps(sc.phase_resolution)
        except ValueError as exc:
            problems.append(str(exc))
    if sc.capture_band_m <= 0.0 or sc.capture_speed_mps <= 0.0:
        problems.append("capture tolerances must be positive")
    if sc.capture_band_m >= sc.airspace.layer_spacing_m / 2.0:
        problems.append("capture band must be under half the layer spacing")
    if not sc.aircraft:
        problems.append("scenario has no aircraft")
    ids = [a.aircraft_id for a in sc.aircraft]
    if len(set(ids)) != len(ids):
        problems.append("aircraft ids must be unique")
    if any(aid < 0 for aid in ids):
        # -1 marks "no airborne relay" in the trace and in ZERO_PATH events
        problems.append("aircraft ids must be non-negative")
    # the roster's floats in one pass, and messages for the flagged rows only
    floats = np.array([(a.x, a.speed_offset, a.altitude_offset) for a in sc.aircraft], dtype=float)
    bad = ~np.isfinite(floats.reshape(-1, 3))
    flagged = bad.any(axis=1).tolist()
    for i, a in enumerate(sc.aircraft):
        if flagged[i]:
            problems += [f"aircraft {a.aircraft_id}: {name} must be finite"
                         for name, cell in zip(_ROSTER_FLOATS, bad[i]) if cell]
        if not 0.0 <= a.x < sc.airspace.course_length_m:
            problems.append(f"aircraft {a.aircraft_id}: x outside the course")
        if a.layer not in (0, 1, 2):
            problems.append(f"aircraft {a.aircraft_id}: layer {a.layer} out of range")
            continue  # the remaining checks index by layer
        v = sc.airspace.expected_speeds_mps[a.layer] + a.speed_offset
        if not 0.0 < v <= sc.airspace.max_speed_mps:
            problems.append(f"aircraft {a.aircraft_id}: initial speed out of range")
        if abs(a.altitude_offset) > sc.airspace.layer_spacing_m / 2.0:
            problems.append(f"aircraft {a.aircraft_id}: starts outside its band")
    first_at: dict[tuple[float, float], int] = {}
    for a in sc.aircraft:
        h = sc.airspace.layer_altitude(a.layer) + a.altitude_offset
        other = first_at.setdefault((a.x, h), a.aircraft_id)
        if other != a.aircraft_id:
            problems.append(f"aircraft {a.aircraft_id}: starts on aircraft {other}")
    return problems


@dataclass
class SimTrace:
    """Per-tick state plus events and closed conflict episodes.

    Each state column is an (n_ticks, n) array: index [k, j] is aircraft row
    j, in roster (id) order, at tick k.  Times and ids come from the scenario.
    """

    scenario: Scenario
    x: np.ndarray
    h: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    layer: np.ndarray
    mode: np.ndarray
    capacity_bps: np.ndarray
    ris_partner: np.ndarray
    events: list[tuple[float, int, str, str]]
    episodes: list[tuple[int, int, float, float]]

    @property
    def t(self) -> np.ndarray:
        """Time of each tick."""
        return np.arange(len(self.x)) * self.scenario.dt

    @property
    def ids(self) -> np.ndarray:
        """Aircraft id of each row."""
        return np.array([a.aircraft_id for a in self.scenario.aircraft], dtype=int)

    @property
    def episode_durations(self) -> np.ndarray:
        return np.array(
            [end - start + self.scenario.dt for _, _, start, end in self.episodes]
        )


def _episode_scores(durations: np.ndarray, thresholds: tuple[float, ...]) -> tuple[float, list[float]]:
    """``ipr_threshold``, and ``ipr`` at each threshold, of these episode durations."""
    n = len(durations)
    if n == 0:
        return 0.0, [1.0] * len(thresholds)
    return float(np.max(durations)), [(n - int(np.sum(durations > t + 1e-12))) / n for t in thresholds]


def ipr(trace: SimTrace, duration_threshold: float) -> float:
    """Intrusion-prevention ratio at the given episode-duration threshold.

    Conflicts are the closed sub-separation episodes of the trace; those
    lasting longer than the threshold count as intrusions.  A run with no
    conflicts scores 1 by convention.
    """
    return _episode_scores(trace.episode_durations, (duration_threshold,))[1][0]


def ipr_threshold(trace: SimTrace) -> float:
    """Smallest duration threshold at which every conflict is prevented."""
    return _episode_scores(trace.episode_durations, ())[0]


# A pair back in violation within this many seconds continues its episode.
EPISODE_MERGE_WINDOW_S = 1.0


def merge_episodes(
    log: list[tuple[int, np.ndarray]], ids: np.ndarray, dt: float
) -> list[tuple[int, int, float, float]]:
    """Maximal episodes (id, id, start, end) from a log of (tick, pair codes)
    violations, ordered by start, then by pair.

    A pair re-entering violation within the merge window continues its
    previous episode; a longer clean spell starts a fresh one.  Codes are
    pairs of rows of ``ids``, which is sorted, so row order is id order.
    """
    ticks = np.concatenate([np.empty(0, dtype=int), *(np.full(len(c), k) for k, c in log)])
    codes = np.concatenate([np.empty(0, dtype=int), *(c for _, c in log)])
    order = np.lexsort((ticks, codes))
    k, c = ticks[order], codes[order]
    t = k * dt
    split = (c[1:] != c[:-1]) | (t[1:] - t[:-1] > EPISODE_MERGE_WINDOW_S + 1e-12)
    edge = [len(c) > 0]  # an empty log has no episode bounds
    first = np.flatnonzero(np.concatenate((edge, split)))
    last = np.flatnonzero(np.concatenate((split, edge)))
    by_start = np.lexsort((c[first], k[first]))
    first, last = first[by_start], last[by_start]
    a, b = np.divmod(c[first], len(ids))
    return list(zip(ids[a].tolist(), ids[b].tolist(), t[first].tolist(), t[last].tolist()))


def time_decimals(dt: float) -> int:
    """Fewest decimals, at least one, that print every multiple of dt exactly,
    whole to a rounding error relative to dt; 9 if none up to 9 do (a dt
    under 1e-9 fails ``validate_scenario``)."""
    for d in range(1, 10):
        scaled = dt * 10**d
        if abs(scaled - round(scaled)) <= 1e-9 * scaled:
            return d
    return 9


# A comm window is (served row, relay row, surface phases, goals): relay -1
# for a fixed surface, phases None when continuous.  A dark one serves no row.
DARK = (-1, -1, None, NO_GOALS)


def run(scenario: Scenario) -> SimTrace:
    """Simulate the scenario and return its full trace."""
    if scenario.problems:
        raise ValueError("invalid scenario: " + "; ".join(scenario.problems))
    return _Engine(scenario).run()


class _Engine:
    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        air = sc.airspace
        self.n = len(sc.aircraft)
        self.ids = np.array([a.aircraft_id for a in sc.aircraft], dtype=int)
        self.layer = np.array([a.layer for a in sc.aircraft], dtype=int)
        self.x = np.array([a.x for a in sc.aircraft], dtype=float)
        self.h = np.array(
            [air.layer_altitude(a.layer) + a.altitude_offset for a in sc.aircraft]
        )
        self.vx = np.array(
            [air.expected_speeds_mps[a.layer] + a.speed_offset for a in sc.aircraft]
        )
        self.vy = np.zeros(self.n)
        self.switch = SwitchState(self.n, sc.initial_backoff)
        self.streams = Streams(sc.seed, self.n)
        self.violations: list[tuple[int, np.ndarray]] = []  # (tick, pair codes)
        self.events: list[tuple[float, int, str, str]] = []
        self.step = np.array(sc.dt)  # 0-d: cheaper on small arrays than a float
        self.window = DARK

    # --- helpers -----------------------------------------------------------

    def _fleet(self) -> Fleet:
        return fleet_state(
            self.x, self.h, self.vx, self.vy, self.layer, self.switch.resident, self.ids,
            self.sc.airspace,
        )

    def _ris_pos(self, relay: int) -> tuple[float, float]:
        """Surface position: on the relay row, or the fixed one for none (-1)."""
        if relay < 0:
            return self.sc.ris_pos
        return (float(self.x[relay]), float(self.h[relay]))

    def _zero_path(self, t: float, served: int, relay: int) -> None:
        """Record that the served link's ends coincide: it has no channel."""
        partner = int(self.ids[relay]) if relay >= 0 else -1
        self.events.append((t, int(self.ids[served]), "ZERO_PATH", f"ris={partner}"))

    def _plan_comm(self, t: float, fleet: Fleet) -> tuple[int, int, RowPhases | None, Goals]:
        """The comm window until the next plan: the high cruiser nearest the
        base station, the low cruiser an airborne surface rides on, the
        phases and the pair's goals.  Continuous phases track the geometry
        every tick; quantized ones are snapped from the current geometry, and
        the plan sets goals where they align.  A quantized window whose
        surface sits on the served aircraft records ZERO_PATH and is dark; one
        whose plan's search reaches the surface serves its phases, without
        goals.
        """
        sc = self.sc
        cruise_high = fleet.segment(2).copy()
        cruise_high.sort()  # row order: argmin ties go to the lowest row
        if len(cruise_high) == 0:
            return DARK
        bs = sc.bs_pos
        d_high = np.hypot(self.x[cruise_high] - bs[0], self.h[cruise_high] - bs[1])
        hi, lo = int(cruise_high[d_high.argmin()]), -1
        if sc.ris_pos is None:
            cruise_low = fleet.segment(1).copy()
            cruise_low.sort()
            if len(cruise_low) == 0:
                return DARK
            x, h = self.x[cruise_low], self.h[cruise_low]
            relay_cost = np.hypot(x - bs[0], h - bs[1]) + np.hypot(x - self.x[hi], h - self.h[hi])
            lo = int(cruise_low[relay_cost.argmin()])
        if sc.phase_mode is PhaseMode.ZERO:
            return hi, lo, RowPhases(np.zeros(steering_rows(sc.ris_elements))), NO_GOALS
        if sc.phase_mode is PhaseMode.CONTINUOUS:
            return hi, lo, None, NO_GOALS
        ris_pos = self._ris_pos(lo)
        high_pos = (float(self.x[hi]), float(self.h[hi]))
        try:
            best = optimal_phase_shift(sc.bs_pos, ris_pos, high_pos, sc.ris_elements)
        except ZeroLengthPath:
            self._zero_path(t, hi, lo)
            return DARK
        phases = quantize_config(best, sc.phase_resolution)
        query = PlanningQuery(
            bs_pos=sc.bs_pos,
            low_pos=ris_pos,
            high_pos=high_pos,
            horizon_m=sc.airspace.max_speed_mps * sc.comm_interval * sc.dt,
            num_elements=sc.ris_elements,
            resolution=sc.phase_resolution,
            low_fixed=lo < 0,
        )
        try:
            (gx_low, gx_high), _ = pso_optimize(query)
        except ZeroLengthPath:
            return hi, lo, phases, NO_GOALS
        if lo < 0:
            return hi, lo, phases, Goals(np.array([hi]), np.array([gx_high]))
        return hi, lo, phases, Goals(np.array([lo, hi]), np.array([gx_low, gx_high]))

    def _tick_capacity(self, t: float) -> float:
        """Capacity of the window's link at the current state.

        A link whose ends coincide has no channel: it serves nothing that
        tick and leaves a ZERO_PATH event.
        """
        sc = self.sc
        hi, lo, phases, _ = self.window
        if hi < 0:
            return 0.0
        high_pos = (float(self.x[hi]), float(self.h[hi]))
        ris_pos = self._ris_pos(lo)
        try:
            if phases is None:
                s = aligned_snr(sc.bs_pos, ris_pos, high_pos, sc.ris_elements, sc.channel)
            else:
                s = snr(sc.bs_pos, ris_pos, high_pos, phases, sc.channel)
        except ZeroLengthPath:
            self._zero_path(t, hi, lo)
            return 0.0
        return capacity(s, sc.channel)

    # --- main loop ---------------------------------------------------------

    def run(self) -> SimTrace:
        sc = self.sc
        shape = (int(round(sc.duration_s / sc.dt)), self.n)
        trace = SimTrace(
            scenario=sc,
            x=np.empty(shape),
            h=np.empty(shape),
            vx=np.empty(shape),
            vy=np.empty(shape),
            layer=np.empty(shape, dtype=int),
            mode=np.empty(shape, dtype=int),
            capacity_bps=np.zeros(shape),
            ris_partner=np.full(shape, -1, dtype=int),
            events=self.events,
            episodes=[],
        )
        dec = time_decimals(sc.dt)

        for k in range(shape[0]):
            t = k * sc.dt
            self._capture_step(t)
            fleet = self._fleet()
            if k % sc.comm_interval == 0:
                self.window = self._plan_comm(t, fleet)
            if len(self._switch_logic(t, fleet).nonzero()[0]):
                # a release is the only change to the residents since the
                # fleet was built: steer and log the state the trace records
                fleet = self._fleet()
            if len(fleet.conflicts):
                self.violations.append((k, fleet.conflicts))
            ax, ay = self._accelerations(fleet)
            cap_now = self._tick_capacity(t)

            trace.x[k], trace.h[k], trace.vx[k], trace.vy[k] = self.x, self.h, self.vx, self.vy
            trace.layer[k], trace.mode[k] = self.layer, self.switch.mode
            if cap_now > 0.0:
                hi, lo = self.window[:2]
                trace.capacity_bps[k, hi] = cap_now
                trace.ris_partner[k, hi] = self.ids[lo] if lo >= 0 else -1

            # in place, in the spent acceleration buffers: no stage keeps a
            # view of the state from one tick to the next
            ax *= self.step
            ay *= self.step
            self.vx += ax
            self.vy += ay
            over = np.hypot(self.vx, self.vy)
            # the speeds were finite, so the fastest is NaN or infinite just
            # when a force is: one reduction checks every row
            top = np.maximum.reduce(over)
            if not top < math.inf:
                raise RuntimeError(f"non-finite force at t={t:.{dec}f}")
            if top > sc.airspace.max_speed_mps:
                mask = (over > sc.airspace.max_speed_mps).nonzero()[0]
                scale = sc.airspace.max_speed_mps / over[mask]
                self.vx[mask] *= scale
                self.vy[mask] *= scale
            # x + vx dt is vx dt + x: the sum commutes bit for bit
            np.multiply(self.vx, self.step, out=ax)
            np.multiply(self.vy, self.step, out=ay)
            ax += self.x
            np.remainder(ax, sc.airspace.course, out=self.x)
            self.h += ay

        trace.episodes = merge_episodes(self.violations, self.ids, sc.dt)
        for (a, b, start, _), dur in zip(trace.episodes, trace.episode_durations):
            self.events.append((start, a, "CFL", f"with={b} dur={dur:.{dec}f}"))
            if dur > sc.intrusion_threshold_s + 1e-12:
                self.events.append((start, a, "INTRUSION", f"with={b} dur={dur:.{dec}f}"))
        self.events.sort(key=lambda e: (e[0], e[1], e[2]))
        return trace

    # --- per-tick stages ---------------------------------------------------

    def _capture_step(self, t: float) -> None:
        """Finish manoeuvres whose aircraft reached their target layer; a
        tick with no row switching has none to finish."""
        sc, sw = self.sc, self.switch
        if not len((sw.mode == MODE_SWITCHING).nonzero()[0]):
            return
        target_h = sc.airspace.layer_altitude(sw.target)
        landed = sw.capture(self.h, self.vy, target_h, sc.capture_band_m, sc.capture_speed_mps)
        self.layer[landed] = sw.target[landed]
        self._layer_events(t, "LS_DONE", landed, self.layer[landed])

    def _layer_events(self, t: float, kind: str, rows: np.ndarray, layers: np.ndarray) -> None:
        """One ``kind`` event for each of ``rows``, naming its layer in ``layers``."""
        ids = self.ids[rows].tolist()
        self.events += [(t, aid, kind, f"layer={lay}") for aid, lay in zip(ids, layers.tolist())]

    def _switch_logic(self, t: float, fleet: Fleet) -> np.ndarray:
        """Back-off one row at a time, hearing releases by flag; then the
        released rows' climb plans and the violated cruisers' triggers as
        array steps, and the counters drawn after the pass; returns a mask of
        the requesting rows.  The order changes no outcome: each row draws
        from its own stream, backing-off rows and cruisers are disjoint, and
        only a backing-off row can be released.

        A flight at ``switch_prob`` 0 has nothing to do: no row can trigger,
        so none ever backs off.  Nor has a tick with no conflict and no
        backing-off row, and it returns before any other array work: a row
        whose front or rear gap is under its separation belongs to a ring
        pair of ``fleet.conflicts``, which tests the gap against the larger
        separation of its two rows, so no cruiser is violated.  A tick whose
        conflicts are cross-layer pairs alone passes that test, and returns
        once it finds no backing-off row and no violated cruiser: no row can
        then step, trigger, arm or draw."""
        sc, sw, n = self.sc, self.switch, self.n
        fired = np.zeros(n, dtype=bool)
        backing = (sw.mode == MODE_BACKING_OFF).nonzero()[0]
        if not (sc.switch_prob and (len(fleet.conflicts) or len(backing))):
            return fired
        violated = (fleet.front < fleet.d_safe) | (fleet.rear < fleet.d_safe)
        cruisers = ((sw.mode == MODE_CRUISE) & violated).nonzero()[0]
        if len(backing) == 0 and len(cruisers) == 0:
            return fired
        # Back-off contention is local: only requests from aircraft currently
        # contending for the same separation gap reset a pending counter.  A
        # request on the far side of the ring says nothing about this gap.
        # Row i's conflict partners are partners[starts[i]:starts[i + 1]].
        lo, hi = np.divmod(fleet.conflicts, n)
        rows = np.concatenate((lo, hi))
        by_row = rows.argsort()
        partners = np.concatenate((hi, lo))[by_row]
        starts = rows[by_row].searchsorted(np.arange(n + 1))
        # The control plane is instantaneous within a tick: a release marks
        # its partners as having heard it, and a row reads its mark at its
        # turn, so two contenders never commit on the same tick.
        heard = np.zeros(n, dtype=bool)
        for i in backing.tolist():
            if backoff_step(sw, i, not violated[i], heard[i]):
                fired[i] = True
                heard[partners[starts[i] : starts[i + 1]]] = True
        released = fired.nonzero()[0]
        if len(released):
            air, layer, target = sc.airspace, self.layer[released], sw.target[released]
            climb = air.layer_altitude(target) - air.layer_altitude(layer)
            plan = optimal_switch_acceleration(
                air.speeds[layer], air.speeds[target], abs(climb), air.max_accel_mps2,
            )
            sw.ax[released], sw.ay[released] = plan.ax, plan.ay
            self._layer_events(t, "LS_REQ", released, target)
        armed = cruisers
        if len(cruisers):
            prob = switch_probability(
                fleet.front[cruisers], fleet.rear[cruisers], fleet.d_safe[cruisers], sc.switch_prob
            )
            armed = triggered(cruisers, prob, self.streams)
        targets = target_layers(armed, fleet, fired, sc.target_window_m, sc.airspace.course_length_m)
        sw.arm(armed, targets, self.streams)  # with the escalated rows' counters
        return fired

    def _accelerations(self, fleet: Fleet) -> tuple[np.ndarray, np.ndarray]:
        """Composite-field forces, norm-clipped, switch profiles overriding."""
        sc = self.sc
        fx, fh = force(fleet, self.window[3], sc.weights, sc.airspace, sc.neighbor_radius_m)
        # clip to the airframe budget
        norm = np.hypot(fx, fh)
        amax = sc.airspace.max_accel_mps2
        over = (norm > amax).nonzero()[0]
        if len(over):
            scale = amax / norm[over]
            fx[over] *= scale
            fh[over] *= scale
        # switching aircraft follow their bang-bang plan instead
        sw = self.switch
        rows = (sw.mode == MODE_SWITCHING).nonzero()[0]
        if len(rows):
            fx[rows], fh[rows] = switch_acceleration_profile(
                self.h[rows],
                sc.airspace.layer_altitude(self.layer[rows]),
                sc.airspace.layer_altitude(sw.target[rows]),
                sw.ax[rows],
                sw.ay[rows],
            )
        return fx, fh


# --- summaries and persistence ---------------------------------------------


def summarize(trace: SimTrace) -> dict[str, float | int | str]:
    """Run-level metrics in a stable key order."""
    sc = trace.scenario
    served = trace.capacity_bps > 0.0
    switching_ticks = trace.mode == MODE_SWITCHING
    out: dict[str, float | int | str] = {}
    out["scenario"] = sc.name
    out["seed"] = sc.seed
    out["duration_s"] = sc.duration_s
    out["dt_s"] = sc.dt
    out["aircraft"] = len(sc.aircraft)
    out["switch_requests"] = sum(1 for e in trace.events if e[2] == "LS_REQ")
    out["switch_completions"] = sum(1 for e in trace.events if e[2] == "LS_DONE")
    out["conflict_episodes"] = len(trace.episodes)
    thresholds = (0.1, 0.3, 0.5, 1.0)
    longest, ratios = _episode_scores(trace.episode_durations, thresholds)
    out["max_episode_s"] = round(longest, 6)
    for thr, ratio in zip(thresholds, ratios):
        out[f"ipr_at_{thr:.1f}s"] = round(ratio, 6)
    out["capacity_ticks"] = int(np.sum(served))
    out["capacity_mean"] = (
        round(float(np.mean(trace.capacity_bps[served])), 6) if np.any(served) else 0.0
    )
    half = (trace.t > sc.duration_s / 2.0)[:, None]
    for lay in (0, 1, 2):
        rows = (trace.layer == lay) & ~switching_ticks & half
        if np.any(rows):
            out[f"speed_mean_layer{lay}"] = round(float(np.mean(trace.vx[rows])), 6)
    return out


# Rows of trace.csv formatted as one block: whole ticks, at least one, of
# about this many rows.  A block's matrix and temporaries take about 300
# bytes a row at their peak, so this keeps them near 0.4 MB.
TRACE_BLOCK_ROWS = 1280


def _trace_block(trace: SimTrace, ticks: range, dec: int, ids: np.ndarray, roster: tuple[np.ndarray, ...]) -> bytearray:
    """The trace.csv rows of the given ticks: their cells written into one
    zeroed matrix, whose NULs are dropped once."""
    id_cells, states, partners = roster
    span = slice(ticks.start, ticks.stop)
    stamps = text_words([f"{k * trace.scenario.dt:.{dec}f}," for k in ticks])
    motion = np.stack([trace.x[span], trace.h[span], trace.vx[span], trace.vy[span]])
    capacity, partner = trace.capacity_bps[span], trace.ris_partner[span]
    widths = (stamps.shape[1], id_cells.shape[1], 4 * float_words(motion), states.shape[1],
              float_words(capacity), partners.shape[1])
    ends = np.cumsum(widths).tolist()
    text = bytearray(4 * partner.size * ends[-1])
    cells = np.frombuffer(text, dtype=np.uint32).reshape(*partner.shape, ends[-1])
    cells[..., : ends[0]] = stamps[:, None]
    cells[..., ends[0] : ends[1]] = id_cells
    float_cells(motion, ",", cells[..., ends[1] : ends[2]].reshape(*partner.shape, 4, -1).transpose(2, 0, 1, 3))
    del motion
    cells[..., ends[2] : ends[3]] = states[trace.layer[span] * 3 + trace.mode[span]]
    float_cells(capacity, ",", cells[..., ends[3] : ends[4]])
    cells[..., ends[4] :] = partners[0]
    k, j = np.nonzero(partner != -1)
    cells[k, j, ends[4] :] = partners[np.searchsorted(ids, partner[k, j]) + 1]
    del cells
    return text.translate(None, b"\0")


def write_trace(trace: SimTrace, path: str) -> None:
    """State rows as delimited text, one row per aircraft per tick.

    The time column comes from the tick index, at the decimals dt needs;
    the other cells read as '%d' and '%.6f' print them.  The cells that
    depend only on the roster are rendered once: "<id>," of each row,
    "<layer>,<mode>," at 3 * layer + mode, and the partner's "-1\n", then
    "<id>\n" of each row.  A layer, mode or partner they hold none for
    raises ``ValueError``.  Whole ticks at a time, about
    ``TRACE_BLOCK_ROWS`` rows, are formatted as one block.
    """
    ids = trace.ids  # sorted: the roster is in id order
    for name, a, n in (("layer", trace.layer, 3), ("mode", trace.mode, len(MODE_NAMES))):
        if a.size and not 0 <= a.min() <= a.max() < n:
            raise ValueError(f"trace {name} outside 0..{n - 1}")
    if not np.isin(trace.ris_partner[trace.ris_partner != -1], ids).all():
        raise ValueError("trace partner that is not an aircraft id")
    roster = (
        text_words([f"{i}," for i in ids.tolist()]),
        text_words([f"{lay},{name}," for lay in range(3) for name in MODE_NAMES]),
        text_words(["-1\n", *(f"{i}\n" for i in ids.tolist())]),
    )
    dec = time_decimals(trace.scenario.dt)
    n_ticks, n = trace.x.shape
    step = max(1, TRACE_BLOCK_ROWS // max(n, 1))
    with open(path, "wb") as fh:
        fh.write(b"t,id,x,h,vx,vy,layer,mode,capacity_bps,active_ris_id\n")
        for k0 in range(0, n_ticks, step):
            fh.write(_trace_block(trace, range(k0, min(k0 + step, n_ticks)), dec, ids, roster))


def write_events(trace: SimTrace, path: str) -> None:
    """Events as delimited text; times at the decimals dt needs."""
    dec = time_decimals(trace.scenario.dt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,id,kind,detail\n")
        for t, aid, kind, detail in trace.events:
            fh.write(f"{t:.{dec}f},{aid},{kind},{detail}\n")


def write_metrics(metrics: dict[str, float | int | str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in metrics.items():
            fh.write(f"{key} = {value}\n")
