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

import numpy as np

from .airspace import (
    AirspaceConfig,
    Fleet,
    Ring,
    cross_layer_conflicts,
    fleet_state,
    layer_residents,
    ring_neighbours,
    ring_offset,
)
from .fields import FieldWeights, Goals, force, potential
from .netcalc import ProtocolParams
# pso_minimize is not called here; it stays bound because the benchmark's
# tracer (perfbench/tracing.py) wraps it in this namespace.
from .planner import PlanningQuery, pso_minimize, pso_optimize  # noqa: F401
from .ris import (
    ChannelParams,
    RowPhases,
    ZeroLengthPath,
    aligned_snr,
    capacity,
    optimal_phase_shift,
    quantize_config,
    snr,
)
from .switching import (
    BACKOFF_CAP,
    MODE_BACKING_OFF,
    MODE_CRUISE,
    MODE_NAMES,
    MODE_SWITCHING,
    SwitchState,
    backoff_step,
    optimal_switch_acceleration,
    switch_acceleration_profile,
    switch_probability,
)


class RisMode(Enum):
    AIRBORNE = "airborne"
    STATIONARY = "stationary"


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
    """Complete, self-contained description of one simulation run."""

    name: str = "custom"
    airspace: AirspaceConfig = field(default_factory=AirspaceConfig)
    channel: ChannelParams = field(default_factory=ChannelParams)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    weights: FieldWeights = field(default_factory=FieldWeights)
    aircraft: tuple[AircraftSpec, ...] = ()
    dt: float = 0.1
    comm_interval: int = 5
    duration_s: float = 40.0
    seed: int = 1
    switch_prob: float = 0.4
    switching_enabled: bool = True
    initial_backoff: int = 2
    neighbor_radius_m: float = 300.0
    target_window_m: float = 500.0
    ris_mode: RisMode = RisMode.AIRBORNE
    stationary_ris_pos: tuple[float, float] = (400.0, 100.0)
    bs_pos: tuple[float, float] = (0.0, 0.0)
    ris_elements: int = 1024
    phase_mode: PhaseMode = PhaseMode.QUANTIZED
    phase_resolution: float = 1.0 / 12.0
    capture_band_m: float = 2.0
    capture_speed_mps: float = 1.0
    intrusion_threshold_s: float = 0.3


def validate_scenario(sc: Scenario) -> list[str]:
    """Collect every configuration problem instead of failing on the first."""
    problems: list[str] = []
    if sc.dt <= 0.0:
        problems.append("dt must be positive")
    if sc.comm_interval < 1:
        problems.append("comm interval must be at least one tick")
    if sc.duration_s <= 0.0:
        problems.append("duration must be positive")
    if not 0.0 <= sc.switch_prob <= 0.5:
        problems.append("switch probability must lie in [0, 0.5]")
    if not 1 <= sc.initial_backoff <= BACKOFF_CAP:
        problems.append(f"initial back-off must lie in [1, {BACKOFF_CAP}]")
    if sc.neighbor_radius_m <= 0.0 or sc.target_window_m <= 0.0:
        problems.append("interaction radii must be positive")
    root = math.isqrt(sc.ris_elements)
    if root * root != sc.ris_elements or sc.ris_elements == 0:
        problems.append("surface element count must be a positive perfect square")
    if sc.phase_mode is PhaseMode.QUANTIZED and sc.phase_resolution <= 0.0:
        problems.append("phase resolution must be positive")
    if sc.capture_band_m <= 0.0 or sc.capture_speed_mps <= 0.0:
        problems.append("capture tolerances must be positive")
    if sc.capture_band_m >= sc.airspace.layer_spacing_m / 2.0:
        problems.append("capture band must be under half the layer spacing")
    if not sc.aircraft:
        problems.append("scenario has no aircraft")
    ids = [a.aircraft_id for a in sc.aircraft]
    if len(set(ids)) != len(ids):
        problems.append("aircraft ids must be unique")
    for a in sc.aircraft:
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
    """Per-tick state table plus events and closed conflict episodes."""

    scenario: Scenario
    t: np.ndarray
    aircraft_id: np.ndarray
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
    def episode_durations(self) -> np.ndarray:
        return np.array(
            [end - start + self.scenario.dt for _, _, start, end in self.episodes]
        )


def ipr(trace: SimTrace, duration_threshold: float) -> float:
    """Intrusion-prevention ratio at the given episode-duration threshold.

    Conflicts are the closed sub-separation episodes of the trace; those
    lasting longer than the threshold count as intrusions.  A run with no
    conflicts scores 1 by convention.
    """
    durations = trace.episode_durations
    n_cfl = len(durations)
    if n_cfl == 0:
        return 1.0
    n_int = int(np.sum(durations > duration_threshold + 1e-12))
    return (n_cfl - n_int) / n_cfl


def ipr_threshold(trace: SimTrace) -> float:
    """Smallest duration threshold at which every conflict is prevented."""
    durations = trace.episode_durations
    if len(durations) == 0:
        return 0.0
    return float(np.max(durations))


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
    ticks = np.repeat(np.array([k for k, _ in log], dtype=int), [len(c) for _, c in log])
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
    """Fewest decimals, at least one, that print every multiple of dt exactly."""
    for d in range(1, 10):
        scaled = dt * 10**d
        if abs(scaled - round(scaled)) < 1e-6:
            return d
    return 9


def run(scenario: Scenario) -> SimTrace:
    """Simulate the scenario and return its full trace."""
    problems = validate_scenario(scenario)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))
    return _Engine(scenario).run()


class _Engine:
    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        air = sc.airspace
        self.n = len(sc.aircraft)
        self.course = air.course_length_m
        self.spacing = air.layer_spacing_m
        order = sorted(sc.aircraft, key=lambda a: a.aircraft_id)
        self.ids = np.array([a.aircraft_id for a in order], dtype=int)
        self.layer = np.array([a.layer for a in order], dtype=int)
        self.x = np.array([a.x for a in order], dtype=float)
        self.h = np.array(
            [air.layer_altitude(a.layer) + a.altitude_offset for a in order]
        )
        self.vx = np.array(
            [air.expected_speeds_mps[a.layer] + a.speed_offset for a in order]
        )
        self.vy = np.zeros(self.n)
        self.switch = SwitchState(self.n, sc.initial_backoff)
        seed_root = np.random.SeedSequence(sc.seed)
        self.rngs = [
            np.random.Generator(np.random.PCG64(c)) for c in seed_root.spawn(self.n)
        ]
        self.violations: list[tuple[int, np.ndarray]] = []  # (tick, pair codes)
        self.events: list[tuple[float, int, str, str]] = []
        self.requested = np.zeros(self.n, dtype=bool)
        self.pair_low: int = -1
        self.pair_high: int = -1
        self.phases: RowPhases | None = None
        self.expected = np.array(air.expected_speeds_mps)
        self.goals = Goals(np.zeros(self.n), np.zeros(self.n), np.zeros(self.n, dtype=bool))

    # --- helpers -----------------------------------------------------------

    def _fleet(self) -> Fleet:
        return fleet_state(
            self.x, self.h, self.vx, self.vy, self.layer, self.switch.resident, self.ids,
            self.sc.airspace,
        )

    def _ris_pos(self) -> tuple[float, float]:
        """Surface position; an airborne surface rides on the low aircraft."""
        if self.sc.ris_mode is RisMode.STATIONARY:
            return self.sc.stationary_ris_pos
        return (float(self.x[self.pair_low]), float(self.h[self.pair_low]))

    def _zero_path(self, t: float) -> None:
        """Record that the served link's ends coincide: it has no channel."""
        partner = int(self.ids[self.pair_low]) if self.pair_low >= 0 else -1
        self.events.append((t, int(self.ids[self.pair_high]), "ZERO_PATH", f"ris={partner}"))

    def _plan_comm(self, t: float, fleet: Fleet) -> None:
        """Refresh the served pair, the surface phases and the pair goals.

        A quantized plan whose surface sits on the served aircraft has no
        phases to quantize: it records ZERO_PATH and serves nothing until a
        later plan succeeds.
        """
        sc = self.sc
        self.goals.active[:] = False
        self.pair_low = self.pair_high = -1
        self.phases = None
        cruise_high = layer_residents(fleet, 2)
        if len(cruise_high) == 0:
            return
        bs = sc.bs_pos
        d_high = np.hypot(self.x[cruise_high] - bs[0], self.h[cruise_high] - bs[1])
        hi = int(cruise_high[np.argmin(d_high)])
        if sc.ris_mode is RisMode.STATIONARY:
            ris_pos = sc.stationary_ris_pos
        else:
            cruise_low = layer_residents(fleet, 1)
            if len(cruise_low) == 0:
                return
            relay_cost = np.hypot(
                self.x[cruise_low] - bs[0], self.h[cruise_low] - bs[1]
            ) + np.hypot(
                self.x[cruise_low] - self.x[hi], self.h[cruise_low] - self.h[hi]
            )
            self.pair_low = int(cruise_low[np.argmin(relay_cost)])
            ris_pos = (float(self.x[self.pair_low]), float(self.h[self.pair_low]))
        self.pair_high = hi
        high_pos = (float(self.x[hi]), float(self.h[hi]))
        if sc.phase_mode is PhaseMode.ZERO:
            self.phases = RowPhases(np.zeros(math.isqrt(sc.ris_elements)), sc.ris_elements)
            return
        if sc.phase_mode is PhaseMode.CONTINUOUS:
            # phases track the geometry every tick; aligned_snr has them exactly
            return
        try:
            best = optimal_phase_shift(sc.bs_pos, ris_pos, high_pos, sc.ris_elements)
        except ZeroLengthPath:
            self._zero_path(t)
            self.pair_low = self.pair_high = -1
            return
        self.phases = quantize_config(best, sc.phase_resolution)
        horizon = sc.airspace.max_speed_mps * sc.comm_interval * sc.dt
        stationary = sc.ris_mode is RisMode.STATIONARY
        query = PlanningQuery(
            bs_pos=sc.bs_pos,
            low_pos=ris_pos,
            high_pos=high_pos,
            horizon_m=(horizon, horizon),
            num_elements=sc.ris_elements,
            resolution=sc.phase_resolution,
            low_fixed=stationary,
        )
        (gx_low, gx_high), _ = pso_optimize(query)
        if not stationary:
            lo = self.pair_low
            self.goals.x[lo] = gx_low
            self.goals.h[lo] = self.spacing
            self.goals.active[lo] = True
        self.goals.x[hi] = gx_high
        self.goals.h[hi] = 2.0 * self.spacing
        self.goals.active[hi] = True

    def _tick_capacity(self, t: float) -> float:
        """Capacity of the served link at the current state.

        A link whose ends coincide has no channel: it serves nothing that
        tick and leaves a ZERO_PATH event.
        """
        sc = self.sc
        hi = self.pair_high
        if hi < 0:
            return 0.0
        high_pos = (float(self.x[hi]), float(self.h[hi]))
        ris_pos = self._ris_pos()
        try:
            if sc.phase_mode is PhaseMode.CONTINUOUS:
                s = aligned_snr(sc.bs_pos, ris_pos, high_pos, sc.ris_elements, sc.channel)
            else:
                s = snr(sc.bs_pos, ris_pos, high_pos, self.phases, sc.channel)
        except ZeroLengthPath:
            self._zero_path(t)
            return 0.0
        return capacity(s, sc.channel)

    # --- main loop ---------------------------------------------------------

    def run(self) -> SimTrace:
        sc = self.sc
        n_ticks = int(round(sc.duration_s / sc.dt))
        n = self.n
        out_t = np.repeat(np.arange(n_ticks) * sc.dt, n)
        out_id = np.tile(self.ids, n_ticks)
        out_x = np.empty(n_ticks * n)
        out_h = np.empty(n_ticks * n)
        out_vx = np.empty(n_ticks * n)
        out_vy = np.empty(n_ticks * n)
        out_layer = np.empty(n_ticks * n, dtype=int)
        out_mode = np.empty(n_ticks * n, dtype=int)
        out_cap = np.zeros(n_ticks * n)
        out_ris = np.full(n_ticks * n, -1, dtype=int)
        dec = time_decimals(sc.dt)

        for k in range(n_ticks):
            t = k * sc.dt
            self._capture_step(t)
            fleet = self._fleet()
            if k % sc.comm_interval == 0:
                self._plan_comm(t, fleet)
            ring = ring_neighbours(fleet, sc.airspace)
            conflicts = np.union1d(ring.conflicts, cross_layer_conflicts(fleet, sc.airspace))
            fired = self._switch_logic(t, fleet, ring, conflicts)
            if len(conflicts):
                # A craft that commits to a manoeuvre this tick is recorded
                # as Switching for this tick; keep episode accounting in step
                # with the recorded modes.
                conflicts = conflicts[~(fired[conflicts // n] | fired[conflicts % n])]
                self.violations.append((k, conflicts))
            acc = self._accelerations(fleet._replace(resident=self.switch.resident), ring)
            cap_now = self._tick_capacity(t)

            sl = slice(k * n, (k + 1) * n)
            out_x[sl] = self.x
            out_h[sl] = self.h
            out_vx[sl] = self.vx
            out_vy[sl] = self.vy
            out_layer[sl] = self.layer
            out_mode[sl] = self.switch.mode
            if self.pair_high >= 0 and cap_now > 0.0:
                out_cap[k * n + self.pair_high] = cap_now
                out_ris[k * n + self.pair_high] = (
                    self.ids[self.pair_low] if self.pair_low >= 0 else -1
                )

            if not np.all(np.isfinite(acc)):
                raise RuntimeError(f"non-finite force at t={t:.{dec}f}")
            self.vx += acc[:, 0] * sc.dt
            self.vy += acc[:, 1] * sc.dt
            over = np.hypot(self.vx, self.vy)
            mask = over > sc.airspace.max_speed_mps
            if np.any(mask):
                scale = sc.airspace.max_speed_mps / over[mask]
                self.vx[mask] *= scale
                self.vy[mask] *= scale
            self.x = (self.x + self.vx * sc.dt) % self.course
            self.h += self.vy * sc.dt
            self.requested = fired

        episodes = merge_episodes(self.violations, self.ids, sc.dt)
        for a, b, start, end in episodes:
            dur = end - start + sc.dt
            self.events.append((start, a, "CFL", f"with={b} dur={dur:.{dec}f}"))
            if dur > sc.intrusion_threshold_s + 1e-12:
                self.events.append((start, a, "INTRUSION", f"with={b} dur={dur:.{dec}f}"))
        self.events.sort(key=lambda e: (e[0], e[1], e[2]))
        return SimTrace(
            scenario=sc,
            t=out_t,
            aircraft_id=out_id,
            x=out_x,
            h=out_h,
            vx=out_vx,
            vy=out_vy,
            layer=out_layer,
            mode=out_mode,
            capacity_bps=out_cap,
            ris_partner=out_ris,
            events=self.events,
            episodes=episodes,
        )

    # --- per-tick stages ---------------------------------------------------

    def _capture_step(self, t: float) -> None:
        """Finish manoeuvres whose aircraft reached their target layer."""
        sc, sw = self.sc, self.switch
        target_h = sc.airspace.layer_altitude(sw.target)
        landed = sw.capture(self.h, self.vy, target_h, sc.capture_band_m, sc.capture_speed_mps)
        self.layer[landed] = sw.target[landed]
        self.events += [
            (t, aid, "LS_DONE", f"layer={lay}")
            for aid, lay in zip(self.ids[landed].tolist(), self.layer[landed].tolist())
        ]

    def _pick_target_layer(self, i: int) -> int:
        """Adjacent layer with the thinner local population; ties go up.

        Aircraft that committed to a switch earlier in this tick's pass no
        longer count.
        """
        candidates = [lay for lay in (self.layer[i] - 1, self.layer[i] + 1) if 0 <= lay <= 2]
        best_layer = -1
        best_count = -1
        for lay in candidates:
            members = np.where((self.layer == lay) & self.switch.resident)[0]
            dx = np.abs(ring_offset(self.x[members] - self.x[i], self.course))
            count = int(np.sum(dx <= self.sc.target_window_m))
            if best_layer < 0 or count < best_count or (count == best_count and lay > best_layer):
                best_layer, best_count = lay, count
        return best_layer

    def _switch_logic(
        self, t: float, fleet: Fleet, ring: Ring, conflicts: np.ndarray
    ) -> np.ndarray:
        """Trigger sampling plus back-off progression; returns a mask of the requesting rows."""
        sc, sw, n = self.sc, self.switch, self.n
        front_d, rear_d, d_safe = ring.front, ring.rear, fleet.d_safe
        violated = (front_d < d_safe) | (rear_d < d_safe)
        # Only violated cruisers and backing-off rows act; the pass keeps row
        # order, since each row hears the requests released before it.
        cruising = sw.mode == MODE_CRUISE
        acting = np.flatnonzero((cruising & violated) | (sw.mode == MODE_BACKING_OFF))
        fired = np.zeros(n, dtype=bool)
        if not sc.switching_enabled or len(acting) == 0:
            return fired
        # Back-off contention is local: only requests from aircraft currently
        # contending for the same separation gap reset a pending counter.  A
        # request on the far side of the ring says nothing about this gap.
        # Row i's conflict partners are partners[starts[i]:starts[i + 1]].
        rows = np.concatenate((conflicts // n, conflicts % n))
        by_row = np.argsort(rows)
        partners = np.concatenate((conflicts % n, conflicts // n))[by_row]
        starts = np.searchsorted(rows[by_row], np.arange(n + 1))
        # The control plane is instantaneous within a tick: requests
        # released earlier in this very pass are audible too, so two
        # contenders never commit on the same tick.
        heard = self.requested.copy()
        for i in acting.tolist():
            if cruising[i]:
                prob = switch_probability(
                    float(front_d[i]), float(rear_d[i]), float(d_safe[i]), sc.switch_prob
                )
                if self.rngs[i].random() < prob:
                    target = self._pick_target_layer(i)
                    if target >= 0:
                        sw.arm(i, target, self.rngs[i])
                continue
            foreign = bool(heard[partners[starts[i] : starts[i + 1]]].any())
            if backoff_step(sw, i, not bool(violated[i]), foreign, self.rngs[i]):
                layer, target = self.layer[i], sw.target[i]
                plan = optimal_switch_acceleration(
                    self.expected[layer],
                    self.expected[target],
                    self.spacing * abs(target - layer),
                    sc.airspace.max_accel_mps2,
                )
                sw.ax[i], sw.ay[i] = plan.ax, plan.ay
                self.events.append((t, int(self.ids[i]), "LS_REQ", f"layer={target}"))
                fired[i] = heard[i] = True
        return fired

    def _accelerations(self, fleet: Fleet, ring: Ring) -> np.ndarray:
        """Composite-field forces, norm-clipped, switch profiles overriding."""
        sc = self.sc
        fx, fh = force(fleet, ring, self.goals, sc.weights, sc.airspace, sc.neighbor_radius_m)
        # clip to the airframe budget
        norm = np.hypot(fx, fh)
        amax = sc.airspace.max_accel_mps2
        over = norm > amax
        if np.any(over):
            fx[over] *= amax / norm[over]
            fh[over] *= amax / norm[over]
        # switching aircraft follow their bang-bang plan instead
        sw = self.switch
        rows = np.flatnonzero(sw.mode == MODE_SWITCHING)
        if len(rows):
            fx[rows], fh[rows] = switch_acceleration_profile(
                self.h[rows],
                sc.airspace.layer_altitude(self.layer[rows]),
                sc.airspace.layer_altitude(sw.target[rows]),
                sw.ax[rows],
                sw.ay[rows],
            )
        return np.column_stack((fx, fh))


# --- summaries and persistence ---------------------------------------------


def composite_field_total(trace: SimTrace) -> np.ndarray:
    """Fleet-wide weighted scalar field value at every recorded tick.

    Sums, over the trace rows not mid-switch, the values of the attraction /
    stabilization / repulsion / layer / goal fields whose gradients steer
    those rows in the engine (velocity consensus is pure damping and has no
    potential, so it does not appear here).  Useful as a convergence diagnostic: a relaxing
    flow drives this sum toward its structural floor.

    Goal terms are omitted because the trace does not record the planner's
    goal points; with the goal weight at zero, which is how flow-convergence
    scenarios run, nothing is lost.
    """
    sc = trace.scenario
    n = len(sc.aircraft)
    n_ticks = len(trace.t) // n
    no_goals = Goals(np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool))
    out = np.zeros(n_ticks)
    for k in range(n_ticks):
        sl = slice(k * n, (k + 1) * n)
        fleet = fleet_state(
            trace.x[sl], trace.h[sl], trace.vx[sl], trace.vy[sl], trace.layer[sl],
            trace.mode[sl] != MODE_SWITCHING, trace.aircraft_id[sl], sc.airspace,
        )
        ring = ring_neighbours(fleet, sc.airspace)
        out[k] = potential(fleet, ring, no_goals, sc.weights, sc.airspace, sc.neighbor_radius_m)
    return out


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
    out["max_episode_s"] = round(ipr_threshold(trace), 6)
    for thr in (0.1, 0.3, 0.5, 1.0):
        out[f"ipr_at_{thr:.1f}s"] = round(ipr(trace, thr), 6)
    out["capacity_ticks"] = int(np.sum(served))
    out["capacity_mean"] = (
        round(float(np.mean(trace.capacity_bps[served])), 6) if np.any(served) else 0.0
    )
    half = trace.t > sc.duration_s / 2.0
    for lay in (0, 1, 2):
        rows = (trace.layer == lay) & ~switching_ticks & half
        if np.any(rows):
            out[f"speed_mean_layer{lay}"] = round(float(np.mean(trace.vx[rows])), 6)
    return out


_WRITE_BLOCK_ROWS = 4096


def write_trace(trace: SimTrace, path: str) -> None:
    """State rows as delimited text, one row per aircraft per tick.

    The time column comes from the tick index, at the decimals dt needs.
    """
    dt = trace.scenario.dt
    n = len(trace.scenario.aircraft)
    dec = time_decimals(dt)
    stamps = [f"{k * dt:.{dec}f}" for k in range(len(trace.t) // n)]
    columns = (
        trace.aircraft_id,
        trace.x,
        trace.h,
        trace.vx,
        trace.vy,
        trace.layer,
        trace.mode,
        trace.capacity_bps,
        trace.ris_partner,
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,id,x,h,vx,vy,layer,mode,capacity_bps,active_ris_id\n")
        # Python lists format fastest; a block at a time bounds their memory.
        for start in range(0, len(trace.t), _WRITE_BLOCK_ROWS):
            block = zip(*(c[start : start + _WRITE_BLOCK_ROWS].tolist() for c in columns))
            fh.writelines(
                f"{stamps[i // n]},{aid},{x:.6f},{h:.6f},{vx:.6f},{vy:.6f},"
                f"{lay},{MODE_NAMES[mode]},{cap:.6f},{ris}\n"
                for i, (aid, x, h, vx, vy, lay, mode, cap, ris) in enumerate(block, start)
            )


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
