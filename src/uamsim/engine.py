"""Deterministic tick loop that couples flight control with the comm planner.

Flight control, separation checks and layer-switch arbitration run every
tick; the surface phases and the pair position plan refresh on the larger
communication interval.  All randomness flows through per-aircraft seeded
streams and the planner is exact, so a scenario with a fixed seed reproduces
its trace byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .airspace import AirspaceConfig
from .fields import FieldWeights
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
    SwitchAutomaton,
    SwitchPhase,
    backoff_step,
    optimal_switch_acceleration,
    switch_acceleration_profile,
    switch_probability,
)

MODE_CRUISE = 0
MODE_SWITCHING = 1
MODE_BACKING_OFF = 2
MODE_NAMES = ("Cruise", "Switching", "BackingOff")


class RisMode(Enum):
    AIRBORNE = "airborne"
    AIRBORNE_INTERFERENCE = "airborne-interference"
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
    if not 1 <= sc.initial_backoff <= 32:
        problems.append("initial back-off must lie in [1, 32]")
    if sc.neighbor_radius_m <= 0.0 or sc.target_window_m <= 0.0:
        problems.append("interaction radii must be positive")
    root = math.isqrt(sc.ris_elements)
    if root * root != sc.ris_elements or sc.ris_elements == 0:
        problems.append("surface element count must be a positive perfect square")
    if sc.phase_mode is PhaseMode.QUANTIZED and sc.phase_resolution <= 0.0:
        problems.append("phase resolution must be positive")
    if sc.capture_band_m <= 0.0 or sc.capture_speed_mps <= 0.0:
        problems.append("capture tolerances must be positive")
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


class _EpisodeTracker:
    """Merges per-tick violation pairs into maximal episodes.

    A pair re-entering violation within the merge window continues its
    previous episode; a longer clean spell starts a fresh one.
    """

    def __init__(self, merge_window_s: float = 1.0) -> None:
        self.merge_window = merge_window_s
        self.open: dict[tuple[int, int], list[float]] = {}
        self.closed: list[tuple[int, int, float, float]] = []

    def observe(self, pairs: set[tuple[int, int]], t: float) -> None:
        for pair in pairs:
            entry = self.open.get(pair)
            if entry is None:
                self.open[pair] = [t, t]
            elif t - entry[1] <= self.merge_window + 1e-12:
                entry[1] = t
            else:
                self.closed.append((pair[0], pair[1], entry[0], entry[1]))
                self.open[pair] = [t, t]

    def finish(self) -> list[tuple[int, int, float, float]]:
        for pair, entry in sorted(self.open.items()):
            self.closed.append((pair[0], pair[1], entry[0], entry[1]))
        self.open.clear()
        self.closed.sort(key=lambda e: (e[2], e[0], e[1]))
        return self.closed


def time_decimals(dt: float) -> int:
    """Fewest decimals, at least one, that print every multiple of dt exactly."""
    for d in range(1, 10):
        scaled = dt * 10**d
        if abs(scaled - round(scaled)) < 1e-6:
            return d
    return 9


def _signed_ring(dx: np.ndarray, course: float) -> np.ndarray:
    """Map raw x differences onto the ring into [-course/2, course/2)."""
    return (dx + 0.5 * course) % course - 0.5 * course


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
        self.mode = np.full(self.n, MODE_CRUISE, dtype=int)
        self.autos = [
            SwitchAutomaton(initial_backoff=sc.initial_backoff) for _ in range(self.n)
        ]
        self.start_alt = np.zeros(self.n)
        self.target_alt = np.zeros(self.n)
        seed_root = np.random.SeedSequence(sc.seed)
        self.rngs = [
            np.random.Generator(np.random.PCG64(c)) for c in seed_root.spawn(self.n)
        ]
        self.tracker = _EpisodeTracker()
        self.events: list[tuple[float, int, str, str]] = []
        self.requests_last_tick: set[int] = set()
        self.pair_low: int = -1
        self.pair_high: int = -1
        self.phases: RowPhases | None = None
        self.expected = np.array(air.expected_speeds_mps)
        big, small = air.max_brake_mps2, air.comfort_brake_mps2
        self.sep_quad = (big - small) / (2.0 * big * small)
        self.sep_lin = air.reaction_delay_s

    # --- helpers -----------------------------------------------------------

    def _hsep(self, speed: np.ndarray) -> np.ndarray:
        return self.sep_quad * speed * speed + self.sep_lin * speed

    def _ris_pos(self) -> tuple[float, float]:
        """Surface position; an airborne surface rides on the low aircraft."""
        if self.sc.ris_mode is RisMode.STATIONARY:
            return self.sc.stationary_ris_pos
        return (float(self.x[self.pair_low]), float(self.h[self.pair_low]))

    def _plan_comm(self) -> None:
        """Refresh the served pair, the surface phases and the pair goals."""
        sc = self.sc
        self.goal_active[:] = False
        cruise_high = np.where((self.layer == 2) & (self.mode != MODE_SWITCHING))[0]
        if len(cruise_high) == 0:
            self.pair_low = self.pair_high = -1
            self.phases = None
            return
        bs = sc.bs_pos
        d_high = np.hypot(self.x[cruise_high] - bs[0], self.h[cruise_high] - bs[1])
        hi = int(cruise_high[np.argmin(d_high)])
        self.pair_high = hi
        if sc.ris_mode is RisMode.STATIONARY:
            self.pair_low = -1
            ris_pos = sc.stationary_ris_pos
        else:
            cruise_low = np.where((self.layer == 1) & (self.mode != MODE_SWITCHING))[0]
            if len(cruise_low) == 0:
                self.pair_low = self.pair_high = -1
                self.phases = None
                return
            relay_cost = np.hypot(
                self.x[cruise_low] - bs[0], self.h[cruise_low] - bs[1]
            ) + np.hypot(
                self.x[cruise_low] - self.x[hi], self.h[cruise_low] - self.h[hi]
            )
            self.pair_low = int(cruise_low[np.argmin(relay_cost)])
            ris_pos = (float(self.x[self.pair_low]), float(self.h[self.pair_low]))
        high_pos = (float(self.x[hi]), float(self.h[hi]))
        if sc.phase_mode is PhaseMode.ZERO:
            self.phases = RowPhases(np.zeros(math.isqrt(sc.ris_elements)), sc.ris_elements)
            return
        if sc.phase_mode is PhaseMode.CONTINUOUS:
            # phases track the geometry every tick; aligned_snr has them exactly
            return
        best = optimal_phase_shift(sc.bs_pos, ris_pos, high_pos, sc.ris_elements)
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
            self.goal_x[lo] = gx_low
            self.goal_h[lo] = self.spacing
            self.goal_active[lo] = True
        self.goal_x[hi] = gx_high
        self.goal_h[hi] = 2.0 * self.spacing
        self.goal_active[hi] = True

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
            partner = int(self.ids[self.pair_low]) if self.pair_low >= 0 else -1
            self.events.append((t, int(self.ids[hi]), "ZERO_PATH", f"ris={partner}"))
            return 0.0
        return capacity(s, sc.channel)

    # --- main loop ---------------------------------------------------------

    def run(self) -> SimTrace:
        sc = self.sc
        n_ticks = int(round(sc.duration_s / sc.dt))
        n = self.n
        self.goal_x = np.zeros(n)
        self.goal_h = np.zeros(n)
        self.goal_active = np.zeros(n, dtype=bool)
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
            if k % sc.comm_interval == 0:
                self._plan_comm()
            front_d, rear_d, prec_idx, conflicts = self._layer_geometry()
            speed = np.hypot(self.vx, self.vy)
            d_safe = self._hsep(speed)
            conflicts |= self._cross_layer_conflicts()
            fired = self._switch_logic(t, front_d, rear_d, d_safe, conflicts)
            if fired:
                # A craft that commits to a manoeuvre this tick is recorded
                # as Switching for this tick; keep episode accounting in step
                # with the recorded modes.
                gone = {int(self.ids[i]) for i in fired}
                conflicts = {
                    p for p in conflicts if p[0] not in gone and p[1] not in gone
                }
            self.tracker.observe(conflicts, t)
            acc = self._accelerations(front_d, prec_idx, d_safe)
            cap_now = self._tick_capacity(t)

            sl = slice(k * n, (k + 1) * n)
            out_x[sl] = self.x
            out_h[sl] = self.h
            out_vx[sl] = self.vx
            out_vy[sl] = self.vy
            out_layer[sl] = self.layer
            out_mode[sl] = self.mode
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
            self.requests_last_tick = fired

        episodes = self.tracker.finish()
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
        """Finish manoeuvres whose aircraft re-entered a layer band."""
        sc = self.sc
        for i in np.where(self.mode == MODE_SWITCHING)[0]:
            auto = self.autos[i]
            mid = 0.5 * (self.start_alt[i] + self.target_alt[i])
            if auto.phase is SwitchPhase.ACCEL:
                crossed = (
                    self.h[i] >= mid
                    if self.target_alt[i] > self.start_alt[i]
                    else self.h[i] <= mid
                )
                if crossed:
                    auto.phase = SwitchPhase.DECEL
            if auto.phase is SwitchPhase.DECEL:
                if (
                    abs(self.h[i] - self.target_alt[i]) <= sc.capture_band_m
                    and abs(self.vy[i]) <= sc.capture_speed_mps
                ):
                    auto.phase = SwitchPhase.CAPTURE
                    self.layer[i] = auto.target_layer
                    self.mode[i] = MODE_CRUISE
                    self.events.append(
                        (t, int(self.ids[i]), "LS_DONE", f"layer={auto.target_layer}")
                    )
                    auto.reset()

    def _layer_geometry(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, set[tuple[int, int]]]:
        """Ring gaps to the cyclic neighbours inside each layer.

        Returns front gap, rear gap, preceding index (-1 when alone) and the
        set of conflicting same-layer neighbour pairs, all over non-switching
        aircraft; switching aircraft get infinite gaps.
        """
        n = self.n
        front = np.full(n, np.inf)
        rear = np.full(n, np.inf)
        prec = np.full(n, -1, dtype=int)
        conflicts: set[tuple[int, int]] = set()
        active = self.mode != MODE_SWITCHING
        speed = np.hypot(self.vx, self.vy)
        for lay in (0, 1, 2):
            members = np.where(active & (self.layer == lay))[0]
            if len(members) < 2:
                continue
            order = members[np.lexsort((self.ids[members], self.x[members]))]
            nxt = np.roll(order, -1)
            dx = (self.x[nxt] - self.x[order]) % self.course
            dh = self.h[nxt] - self.h[order]
            gap = np.hypot(dx, dh)
            front[order] = gap
            rear[nxt] = gap
            prec[order] = nxt
            pair_sep = self._hsep(np.maximum(speed[order], speed[nxt]))
            for a, b in zip(order[gap < pair_sep], nxt[gap < pair_sep]):
                ia, ib = int(self.ids[a]), int(self.ids[b])
                conflicts.add((min(ia, ib), max(ia, ib)))
        return front, rear, prec, conflicts

    def _cross_layer_conflicts(self) -> set[tuple[int, int]]:
        """Converging resident pairs in different layers within two spacings.

        Aircraft in the middle of a switch manoeuvre are not counted, exactly
        as they drop out of the same-layer ring: conflict accounting covers
        layer residents, and a switcher re-enters it at capture.
        """
        sc = self.sc
        out: set[tuple[int, int]] = set()
        coeff = sc.airspace.vertical_separation_coeff
        speed = np.hypot(self.vx, self.vy)
        resident = self.mode != MODE_SWITCHING
        groups = {
            lay: np.where(resident & (self.layer == lay))[0] for lay in (0, 1, 2)
        }
        for la, lb in ((0, 1), (1, 2), (0, 2)):
            ga, gb = groups[la], groups[lb]
            if len(ga) == 0 or len(gb) == 0:
                continue
            sx = _signed_ring(self.x[ga][:, None] - self.x[gb][None, :], self.course)
            sh = self.h[ga][:, None] - self.h[gb][None, :]
            dist = np.hypot(sx, sh)
            rvx = self.vx[ga][:, None] - self.vx[gb][None, :]
            rvy = self.vy[ga][:, None] - self.vy[gb][None, :]
            rnorm = np.hypot(rvx, rvy)
            with np.errstate(invalid="ignore", divide="ignore"):
                cosg = -(sx * rvx + sh * rvy) / (dist * rnorm)
            cosg = np.where((rnorm == 0.0) | (dist == 0.0), 0.0, cosg)
            cosg = np.clip(cosg, 0.0, 1.0)
            vsep = coeff * np.maximum(speed[ga][:, None], speed[gb][None, :]) * cosg
            hit = (
                (dist < vsep)
                & (dist > 0.0)
                & (np.abs(sh) <= 2.0 * self.spacing + 1e-9)
            )
            for r, c in zip(*np.where(hit)):
                ia, ib = int(self.ids[ga[r]]), int(self.ids[gb[c]])
                out.add((min(ia, ib), max(ia, ib)))
        return out

    def _pick_target_layer(self, i: int) -> int:
        """Adjacent layer with the thinner local population; ties go up."""
        sc = self.sc
        candidates = [lay for lay in (self.layer[i] - 1, self.layer[i] + 1) if 0 <= lay <= 2]
        best_layer = -1
        best_count = -1
        for lay in candidates:
            members = np.where((self.layer == lay) & (self.mode != MODE_SWITCHING))[0]
            if len(members) == 0:
                count = 0
            else:
                dx = np.abs(_signed_ring(self.x[members] - self.x[i], self.course))
                count = int(np.sum(dx <= sc.target_window_m))
            if best_layer < 0 or count < best_count or (count == best_count and lay > best_layer):
                best_layer, best_count = lay, count
        return best_layer

    def _switch_logic(
        self,
        t: float,
        front_d: np.ndarray,
        rear_d: np.ndarray,
        d_safe: np.ndarray,
        conflicts: set[tuple[int, int]],
    ) -> set[int]:
        """Trigger sampling plus back-off progression; returns new requests."""
        sc = self.sc
        fired: set[int] = set()
        if not sc.switching_enabled:
            return fired
        violated = (front_d < d_safe) | (rear_d < d_safe)
        # Back-off contention is local: only requests from aircraft currently
        # contending for the same separation gap reset a pending counter.  A
        # request on the far side of the ring says nothing about this gap.
        partners: dict[int, set[int]] = {}
        for a, b in conflicts:
            ia = int(np.searchsorted(self.ids, a))
            ib = int(np.searchsorted(self.ids, b))
            partners.setdefault(ia, set()).add(ib)
            partners.setdefault(ib, set()).add(ia)
        for i in range(self.n):
            if self.mode[i] == MODE_CRUISE and violated[i]:
                prob = switch_probability(
                    float(front_d[i]), float(rear_d[i]), float(d_safe[i]), sc.switch_prob
                )
                if self.rngs[i].random() < prob:
                    target = self._pick_target_layer(i)
                    if target >= 0:
                        self.autos[i].arm(target, self.rngs[i])
                        self.mode[i] = MODE_BACKING_OFF
                        continue
            if self.mode[i] == MODE_BACKING_OFF:
                # The control plane is instantaneous within a tick: requests
                # released earlier in this very pass are audible too, so two
                # contenders never commit on the same tick.
                audible = (self.requests_last_tick | fired) & partners.get(i, set())
                foreign = bool(audible - {i})
                released = backoff_step(
                    self.autos[i],
                    separation_restored=not bool(violated[i]),
                    foreign_request=foreign,
                    rng=self.rngs[i],
                )
                if released:
                    auto = self.autos[i]
                    v_from = self.expected[self.layer[i]]
                    v_to = self.expected[auto.target_layer]
                    auto.plan = optimal_switch_acceleration(
                        v_from,
                        v_to,
                        self.spacing * abs(auto.target_layer - self.layer[i]),
                        sc.airspace.max_accel_mps2,
                    )
                    self.start_alt[i] = sc.airspace.layer_altitude(self.layer[i])
                    self.target_alt[i] = sc.airspace.layer_altitude(auto.target_layer)
                    self.mode[i] = MODE_SWITCHING
                    self.events.append(
                        (t, int(self.ids[i]), "LS_REQ", f"layer={auto.target_layer}")
                    )
                    fired.add(i)
                elif self.autos[i].phase is SwitchPhase.IDLE:
                    self.mode[i] = MODE_CRUISE
        return fired

    def _accelerations(
        self, front_d: np.ndarray, prec_idx: np.ndarray, d_safe: np.ndarray
    ) -> np.ndarray:
        """Vectorized composite-field forces, switch profiles overriding."""
        sc = self.sc
        w = sc.weights
        n = self.n
        fx = np.zeros(n)
        fh = np.zeros(n)
        ref = self.expected[self.layer]
        # stabilizer, velocity damping toward the layer speed
        fx -= w.stabilize * 2.0 * (self.vx - ref)
        fh -= w.stabilize * 2.0 * self.vy
        # layer altitude well
        off = np.where(
            self.h > 1.5 * self.spacing,
            self.h - 2.0 * self.spacing,
            np.where(self.h > 0.5 * self.spacing, self.h - self.spacing, self.h),
        )
        fh -= w.layer * 2.0 * off
        # attraction toward the preceding aircraft's comfort gap
        has_prec = prec_idx >= 0
        if np.any(has_prec) and w.attract > 0.0:
            i_idx = np.where(has_prec)[0]
            p_idx = prec_idx[i_idx]
            d = front_d[i_idx]
            gap = d - d_safe[i_idx]
            pull = np.where((gap >= 0.0) & (d > 0.0), 2.0 * gap / np.maximum(d, 1e-12), 0.0)
            sx = -_signed_ring(self.x[p_idx] - self.x[i_idx], self.course)
            shh = self.h[i_idx] - self.h[p_idx]
            fx[i_idx] -= w.attract * pull * sx
            fh[i_idx] -= w.attract * pull * shh
        # repulsion and velocity consensus inside each layer
        active = self.mode != MODE_SWITCHING
        for lay in (0, 1, 2):
            members = np.where(active & (self.layer == lay))[0]
            m = len(members)
            if m < 2:
                continue
            sx = _signed_ring(
                self.x[members][None, :] - self.x[members][:, None], self.course
            )
            shh = self.h[members][None, :] - self.h[members][:, None]
            dist = np.hypot(sx, shh)
            np.fill_diagonal(dist, np.inf)
            if np.any(dist == 0.0):
                raise RuntimeError("coincident aircraft in layer " + str(lay))
            near = dist <= sc.neighbor_radius_m
            if w.repulse > 0.0:
                inside = near & (dist < d_safe[members][:, None])
                if np.any(inside):
                    inv = np.where(
                        inside, 1.0 / dist - 1.0 / d_safe[members][:, None], 0.0
                    )
                    scale = np.where(inside, -2.0 * inv / dist**3, 0.0)
                    gx = np.sum(scale * (-sx), axis=1)
                    gh = np.sum(scale * (-shh), axis=1)
                    fx[members] -= w.repulse * gx
                    fh[members] -= w.repulse * gh
            if w.consensus_gain > 0.0:
                # summed explicitly (not matmul) so reductions stay
                # bit-stable regardless of the BLAS thread count
                deg = near.sum(axis=1)
                nb_vx = np.sum(np.where(near, self.vx[members][None, :], 0.0), axis=1)
                nb_vy = np.sum(np.where(near, self.vy[members][None, :], 0.0), axis=1)
                fx[members] -= w.consensus_gain * (deg * self.vx[members] - nb_vx)
                fh[members] -= w.consensus_gain * (deg * self.vy[members] - nb_vy)
        # goal pull for the planned pair
        if np.any(self.goal_active) and w.goal > 0.0:
            g = self.goal_active
            gdx = _signed_ring(self.goal_x[g] - self.x[g], self.course)
            fx[g] -= w.goal * (-2.0 * gdx)
            fh[g] -= w.goal * 2.0 * (self.h[g] - self.goal_h[g])
        # clip to the airframe budget
        norm = np.hypot(fx, fh)
        amax = sc.airspace.max_accel_mps2
        over = norm > amax
        if np.any(over):
            fx[over] *= amax / norm[over]
            fh[over] *= amax / norm[over]
        # switching aircraft follow their bang-bang plan instead
        for i in np.where(self.mode == MODE_SWITCHING)[0]:
            auto = self.autos[i]
            ax, ay = switch_acceleration_profile(
                float(self.h[i]), self.start_alt[i], self.target_alt[i], auto.plan
            )
            fx[i] = ax
            fh[i] = ay
        return np.column_stack((fx, fh))


# --- summaries and persistence ---------------------------------------------


def composite_field_total(trace: SimTrace) -> np.ndarray:
    """Fleet-wide weighted scalar field value at every recorded tick.

    Recomputes, from the trace rows, the same attraction / stabilization /
    repulsion / layer / goal potentials whose gradients drive the engine
    (velocity consensus is pure damping and has no potential, so it does not
    appear here).  Useful as a convergence diagnostic: a relaxing flow drives
    this sum toward its structural floor.

    Goal terms are omitted because the trace does not record the planner's
    goal points; with the goal weight at zero, which is how flow-convergence
    scenarios run, nothing is lost.
    """
    sc = trace.scenario
    air, w = sc.airspace, sc.weights
    course = air.course_length_m
    spacing = air.layer_spacing_m
    expected = np.array(air.expected_speeds_mps)
    big, small = air.max_brake_mps2, air.comfort_brake_mps2
    quad = (big - small) / (2.0 * big * small)
    lin = air.reaction_delay_s
    n = len(sc.aircraft)
    n_ticks = len(trace.t) // n
    out = np.zeros(n_ticks)
    for k in range(n_ticks):
        sl = slice(k * n, (k + 1) * n)
        x, h = trace.x[sl], trace.h[sl]
        vx, vy = trace.vx[sl], trace.vy[sl]
        layer, mode = trace.layer[sl], trace.mode[sl]
        ids = trace.aircraft_id[sl]
        speed = np.hypot(vx, vy)
        d_safe = quad * speed * speed + lin * speed
        total = w.stabilize * float(np.sum((vx - expected[layer]) ** 2 + vy**2))
        off = np.where(
            h > 1.5 * spacing,
            h - 2.0 * spacing,
            np.where(h > 0.5 * spacing, h - spacing, h),
        )
        total += w.layer * float(np.sum(off**2))
        active = mode != MODE_SWITCHING
        for lay in (0, 1, 2):
            members = np.where(active & (layer == lay))[0]
            if len(members) < 2:
                continue
            order = members[np.lexsort((ids[members], x[members]))]
            nxt = np.roll(order, -1)
            dx = (x[nxt] - x[order]) % course
            gap = np.hypot(dx, h[nxt] - h[order]) - d_safe[order]
            total += w.attract * float(np.sum(np.maximum(gap, 0.0) ** 2))
            if w.repulse > 0.0:
                sx = _signed_ring(x[members][None, :] - x[members][:, None], course)
                shh = h[members][None, :] - h[members][:, None]
                dist = np.hypot(sx, shh)
                np.fill_diagonal(dist, np.inf)
                inside = (dist <= sc.neighbor_radius_m) & (
                    dist < d_safe[members][:, None]
                )
                inv = np.where(inside, 1.0 / dist - 1.0 / d_safe[members][:, None], 0.0)
                total += w.repulse * float(np.sum(inv**2))
        out[k] = total
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
