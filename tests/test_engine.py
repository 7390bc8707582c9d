"""Whole-simulator behaviour: determinism, invariants, episode accounting."""

import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamsim import engine, scenarios
from uamsim.airspace import cross_layer_conflicts, ring_neighbours
from uamsim.fields import CollisionError, FieldWeights
from uamsim.switching import MODE_BACKING_OFF, MODE_CRUISE, MODE_SWITCHING
from uamsim.engine import (
    AircraftSpec,
    PhaseMode,
    RisMode,
    Scenario,
    EPISODE_MERGE_WINDOW_S,
    composite_field_total,
    ipr,
    ipr_threshold,
    merge_episodes,
    run,
    summarize,
    time_decimals,
    validate_scenario,
    write_events,
    write_metrics,
    write_trace,
)


def _short(sc, seconds=8.0):
    return replace(sc, duration_s=seconds)


def test_run_is_deterministic():
    sc = _short(scenarios.get_scenario("fig12-ipr", seed=3))
    a = run(sc)
    b = run(sc)
    for name in ("x", "h", "vx", "vy", "layer", "mode", "capacity_bps"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.events == b.events
    assert a.episodes == b.episodes


def test_trace_files_byte_identical(tmp_path):
    sc = _short(scenarios.get_scenario("fig12-ipr", seed=7))
    blobs = []
    for rerun in range(2):
        tr = run(sc)
        tp = tmp_path / f"trace{rerun}.csv"
        mp = tmp_path / f"metrics{rerun}.txt"
        write_trace(tr, str(tp))
        write_metrics(summarize(tr), str(mp))
        blobs.append((tp.read_bytes(), mp.read_bytes()))
    assert blobs[0] == blobs[1]
    print(f"trace bytes: {len(blobs[0][0])}, metrics bytes: {len(blobs[0][1])}")


def test_even_spacing_stays_quiet():
    """Evenly seeded rings hold speed and never trip the separation rule."""
    tr = run(_short(scenarios.get_scenario("table1-5perlayer"), 12.0))
    assert len(tr.episodes) == 0
    assert not any(ev[2] == "LS_REQ" for ev in tr.events)
    expected = {0: 30.0, 1: 45.0, 2: 60.0}
    late = tr.t > 6.0
    for lay, ref in expected.items():
        sel = late & (tr.layer == lay)
        dev = np.max(np.abs(tr.vx[sel] - ref))
        print(f"layer {lay}: worst late speed deviation {dev:.3f} m/s")
        assert dev < 1.0
    assert np.max(np.abs(tr.vy)) < 0.5


def test_layer_band_and_speed_invariants():
    for seed in (1, 2, 3):
        sc = _short(scenarios.get_scenario("fig12-ipr", seed=seed), 15.0)
        tr = run(sc)
        cruising = tr.mode == MODE_CRUISE
        off = np.abs(tr.h[cruising] - tr.layer[cruising] * 100.0)
        assert np.max(off) <= 50.0 + 1e-9
        speed = np.hypot(tr.vx, tr.vy)
        assert np.max(speed) <= 65.0 + 1e-9
        assert np.all(tr.x >= 0.0) and np.all(tr.x < 2000.0)


def test_ipr_counts_and_conventions():
    sc = _short(scenarios.get_scenario("fig12-ipr", seed=2), 20.0)
    tr = run(sc)
    assert len(tr.episodes) > 0
    # every episode prevented at a huge threshold
    assert ipr(tr, 1e9) == 1.0
    thr = ipr_threshold(tr)
    assert ipr(tr, thr) == 1.0
    assert ipr(tr, thr - 0.05) < 1.0
    # monotone in the threshold
    grid = np.linspace(0.0, thr + 0.5, 25)
    vals = [ipr(tr, g) for g in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # convention: no conflicts at all scores 1
    quiet = run(_short(scenarios.get_scenario("table1-5perlayer"), 5.0))
    assert ipr(quiet, 0.0) == 1.0
    assert ipr_threshold(quiet) == 0.0


def _log(entries):
    """The engine's violation log from (tick, [pair code, ...]) entries."""
    return [(k, np.array(codes, dtype=int)) for k, codes in entries]


def test_ipr_arithmetic_is_exact():
    # 10 episodes on a 0.1 s grid, 2 of them 0.5 s long, the rest one tick
    ids = np.arange(20)
    log = [
        (1000 * k + tick, [2 * k * 20 + 2 * k + 1])
        for k in range(10)
        for tick in range(5 if k < 2 else 1)
    ]
    eps = merge_episodes(_log(log), ids, 0.1)
    assert len(eps) == 10
    durations = np.array([e - s + 0.1 for _, _, s, e in eps])
    n_int = int(np.sum(durations > 0.3 + 1e-12))
    assert n_int == 2
    assert (10 - n_int) / 10 == pytest.approx(0.8)


def test_episode_merge_window():
    assert EPISODE_MERGE_WINDOW_S == 1.0
    # ticks of 0.1 s at 0.0 and 0.1; a 0.9 s clean spell continues the same
    # episode at 1.0; a 1.5 s clean spell starts a new one at 2.5
    log = [(0, [1]), (1, [1]), (10, [1]), (25, [1])]
    eps = merge_episodes(_log(log), np.array([0, 1]), 0.1)
    assert eps == [(0, 1, 0.0, 1.0), (0, 1, 2.5, 2.5)]


def _tracker_episodes(log, dt):
    """Brute-force oracle: merge each tick's id pairs into open episodes as
    they arrive, the way the engine once tracked them during the run."""
    open_eps, closed = {}, []
    for k, pairs in log:
        t = k * dt
        for pair in pairs:
            entry = open_eps.get(pair)
            if entry is None:
                open_eps[pair] = [t, t]
            elif t - entry[1] <= EPISODE_MERGE_WINDOW_S + 1e-12:
                entry[1] = t
            else:
                closed.append((*pair, *entry))
                open_eps[pair] = [t, t]
    closed += [(*pair, *entry) for pair, entry in open_eps.items()]
    return sorted(closed, key=lambda e: (e[2], e[0], e[1]))


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.integers(0, 50), min_size=2, max_size=5, unique=True),
    dt=st.sampled_from([0.1, 0.05, 0.2, 0.3, 0.25]),
    data=st.data(),
)
def test_episodes_match_the_per_tick_merge(ids, dt, data):
    ids = np.array(sorted(ids))
    n = len(ids)
    all_codes = [lo * n + hi for lo in range(n) for hi in range(lo + 1, n)]
    ticks = data.draw(st.lists(st.integers(0, 80), max_size=40, unique=True).map(sorted))
    log = [(k, sorted(data.draw(st.sets(st.sampled_from(all_codes), min_size=1)))) for k in ticks]
    id_log = [(k, [(int(ids[c // n]), int(ids[c % n])) for c in codes]) for k, codes in log]
    assert merge_episodes(_log(log), ids, dt) == _tracker_episodes(id_log, dt)


def test_single_aircraft_cruises_forever():
    sc = Scenario(
        name="solo",
        aircraft=(AircraftSpec(aircraft_id=0, layer=1, x=100.0),),
        duration_s=10.0,
    )
    tr = run(sc)
    assert len(tr.episodes) == 0
    assert np.all(tr.layer == 1)
    assert np.max(np.abs(tr.vx - 45.0)) < 0.5
    # the ring wraps instead of running off the course
    assert np.max(tr.x) < 2000.0


def test_ring_wraparound_is_seamless():
    sc = Scenario(
        name="wrap",
        aircraft=(AircraftSpec(aircraft_id=0, layer=2, x=1990.0),),
        duration_s=5.0,
    )
    tr = run(sc)
    assert np.min(tr.x) < 100.0 and np.max(tr.x) > 1900.0
    # velocity stays smooth through the seam
    assert np.max(np.abs(np.diff(tr.vx))) < 1.0


def test_events_sorted_and_paired():
    sc = _short(scenarios.get_scenario("fig12-ipr", seed=4), 20.0)
    tr = run(sc)
    keys = [(ev[0], ev[1]) for ev in tr.events]
    assert keys == sorted(keys)
    n_req = sum(1 for ev in tr.events if ev[2] == "LS_REQ")
    n_done = sum(1 for ev in tr.events if ev[2] == "LS_DONE")
    print(f"seed 4: {n_req} requests, {n_done} completions")
    assert n_done <= n_req


def test_switch_completion_changes_layer():
    sc = _short(scenarios.get_scenario("fig12-ipr", seed=1), 25.0)
    tr = run(sc)
    done = [ev for ev in tr.events if ev[2] == "LS_DONE"]
    if not done:
        pytest.skip("seed produced no completed manoeuvre in the window")
    t_done, aid, _, detail = done[0]
    target = int(detail.split("=")[1])
    rows = tr.aircraft_id == aid
    after = rows & (tr.t > t_done + 0.2)
    assert np.all(tr.layer[after][:5] == target)
    # captured close to the layer altitude
    h_after = tr.h[after][:5]
    assert np.all(np.abs(h_after - target * 100.0) < 5.0)


def test_backoff_contention_is_local():
    """Rows 0-1 and rows 2-3 are two separate conflicts, all four backing
    off but row 3.  Row 0 releases its switch; its partner, row 1, hears the
    request in the same pass and redraws under a doubled ceiling, while
    row 2, whose only partner is row 3, counts down."""
    xs = (0.0, 50.0, 1000.0, 1050.0)
    sc = Scenario(aircraft=tuple(AircraftSpec(i, 0, x=x) for i, x in enumerate(xs)))
    eng = engine._Engine(sc)
    fleet = eng._fleet()
    ring = ring_neighbours(fleet, sc.airspace)
    conflicts = np.union1d(ring.conflicts, cross_layer_conflicts(fleet, sc.airspace))
    assert conflicts.tolist() == [0 * 4 + 1, 2 * 4 + 3]
    sw = eng.switch
    for i, counter in ((0, 1), (1, 2), (2, 2)):
        sw.mode[i], sw.target[i], sw.backoff[i] = MODE_BACKING_OFF, 1, counter
    fired = eng._switch_logic(0.0, fleet, ring, conflicts)
    assert fired.tolist() == [True, False, False, False]
    assert sw.backoff_max[1] == 4
    assert (sw.backoff_max[2], sw.backoff[2]) == (2, 1)


def test_composite_field_total_decays():
    sc = scenarios.get_scenario("fig11-cpf", seed=2)
    tr = run(sc)
    tot = composite_field_total(tr)
    ticks = len(tot)
    t_grid = np.arange(ticks) * sc.dt
    early = tot[np.argmin(np.abs(t_grid - 2.0))]
    late = tot[np.argmin(np.abs(t_grid - 20.0))]
    print(f"field total: t=2s {early:.3f} -> t=20s {late:.5f}")
    assert late < 0.05 * early


def test_capacity_column_present_and_finite():
    tr = run(_short(scenarios.get_scenario("fig6-airborne"), 6.0))
    cap = tr.capacity_bps
    served = cap[np.isfinite(cap) & (cap > 0)]
    assert served.size > 0
    assert np.all(served < 200.0)
    print(f"mean served capacity {np.mean(served):.2f} (bandwidth-normalized)")


def test_validate_scenario_reports_problems():
    bad = Scenario(
        name="bad",
        aircraft=(
            AircraftSpec(aircraft_id=0, layer=7, x=100.0),
            AircraftSpec(aircraft_id=1, layer=1, x=2500.0),
        ),
    )
    problems = validate_scenario(bad)
    assert len(problems) == 2
    with pytest.raises(ValueError):
        run(bad)


def test_summary_has_the_headline_numbers():
    tr = run(_short(scenarios.get_scenario("fig12-ipr", seed=5), 10.0))
    s = summarize(tr)
    for key in ("aircraft", "conflict_episodes", "max_episode_s", "capacity_mean"):
        assert key in s, key
    assert s["aircraft"] == 15


def test_write_events_file(tmp_path):
    tr = run(_short(scenarios.get_scenario("fig12-ipr", seed=3), 15.0))
    path = tmp_path / "events.csv"
    write_events(tr, str(path))
    text = path.read_text().strip().splitlines()
    assert text[0].startswith("t,")
    assert len(text) == 1 + len(tr.events)


def test_time_decimals():
    assert [time_decimals(dt) for dt in (0.1, 0.05, 0.025, 1.0, 0.5, 2.0)] == [1, 2, 3, 1, 1, 1]


def _columns(path, col=0):
    return [line.split(",")[col] for line in path.read_text().splitlines()[1:]]


def test_fine_dt_prints_one_timestamp_per_tick(tmp_path):
    """At dt = 0.05 the 20 ticks of each second print as 20 distinct times,
    and episode durations keep the second decimal."""
    sc = replace(scenarios.get_scenario("fig12-ipr", seed=2), dt=0.05, duration_s=3.0)
    tr = run(sc)
    write_trace(tr, str(tmp_path / "trace.csv"))
    write_events(tr, str(tmp_path / "events.csv"))
    stamps = list(dict.fromkeys(_columns(tmp_path / "trace.csv")))
    assert stamps == [f"{k * 0.05:.2f}" for k in range(60)]
    assert stamps[:3] == ["0.00", "0.05", "0.10"]
    details = _columns(tmp_path / "events.csv", 3)
    durations = [d for d in details if "dur=" in d]
    assert durations, "seed 2 starts with violated pairs"
    assert all(re.search(r"dur=\d+\.\d\d$", d) for d in durations)
    assert all(re.fullmatch(r"\d+\.\d\d", t) for t in _columns(tmp_path / "events.csv"))


def test_default_dt_times_keep_one_decimal(tmp_path):
    tr = run(_short(scenarios.get_scenario("fig12-ipr", seed=2), 3.0))
    write_trace(tr, str(tmp_path / "trace.csv"))
    assert _columns(tmp_path / "trace.csv") == [f"{t:.1f}" for t in tr.t]


def _parked_on_the_served_aircraft(phase_mode):
    return Scenario(
        name="parked",
        aircraft=(AircraftSpec(aircraft_id=7, layer=2, x=400.0),),
        ris_mode=RisMode.STATIONARY,
        stationary_ris_pos=(400.0, 200.0),
        phase_mode=phase_mode,
        duration_s=1.0,
    )


@pytest.mark.parametrize("phase_mode", list(PhaseMode), ids=lambda m: m.value)
def test_coincident_surface_serves_nothing_and_says_so(phase_mode):
    """A stationary surface on the served aircraft has a zero-length path:
    that tick serves nothing and records a ZERO_PATH event.  A quantized
    plan has no phases then, so nothing is served until the next plan."""
    sc = _parked_on_the_served_aircraft(phase_mode)
    tr = run(sc)
    zero = [e for e in tr.events if e[2] == "ZERO_PATH"]
    assert zero == [(0.0, 7, "ZERO_PATH", "ris=-1")]
    dark = sc.comm_interval if phase_mode is PhaseMode.QUANTIZED else 1
    assert np.all(tr.capacity_bps[:dark] == 0.0)
    assert np.all(tr.capacity_bps[dark:] > 0.0)


def test_coincident_start_is_rejected():
    """Two aircraft on one point of a layer fail validation, not the run."""
    sc = Scenario(
        aircraft=(
            AircraftSpec(aircraft_id=3, layer=1, x=100.0, altitude_offset=2.0),
            AircraftSpec(aircraft_id=4, layer=1, x=100.0, altitude_offset=2.0),
            AircraftSpec(aircraft_id=5, layer=1, x=100.0, altitude_offset=-2.0),
            AircraftSpec(aircraft_id=6, layer=2, x=100.0, altitude_offset=2.0),
        ),
    )
    assert validate_scenario(sc) == ["aircraft 4: starts on aircraft 3"]
    with pytest.raises(ValueError, match="starts on aircraft 3"):
        run(sc)


def test_cross_layer_coincident_start_is_rejected():
    """Offsets can put aircraft of adjacent layers on one point: layer 0 at
    +50 m and layer 1 at -50 m both start at h = 50 m."""
    sc = Scenario(
        aircraft=(
            AircraftSpec(aircraft_id=0, layer=0, x=500.0, altitude_offset=50.0),
            AircraftSpec(aircraft_id=1, layer=1, x=500.0, altitude_offset=-50.0),
        ),
    )
    assert validate_scenario(sc) == ["aircraft 1: starts on aircraft 0"]


def test_coincidence_mid_run_is_a_collision():
    """With every field off, a 50 m/s aircraft catches a 40 m/s one 10 m
    ahead on exactly the same point after one second."""
    off = FieldWeights(attract=0.0, stabilize=0.0, repulse=0.0, layer=0.0, goal=0.0,
                       consensus_gain=0.0)
    sc = Scenario(
        aircraft=(
            AircraftSpec(aircraft_id=0, layer=1, x=0.0, speed_offset=5.0),
            AircraftSpec(aircraft_id=1, layer=1, x=10.0, speed_offset=-5.0),
        ),
        weights=off,
        switching_enabled=False,
        duration_s=2.0,
    )
    assert validate_scenario(sc) == []
    with pytest.raises(CollisionError, match="aircraft 0 and 1 collided in layer 1"):
        run(sc)


def test_other_capacity_errors_propagate(monkeypatch):
    def broken(*args):
        raise ValueError("not a geometry problem")

    monkeypatch.setattr(engine, "snr", broken)
    sc = replace(_parked_on_the_served_aircraft(PhaseMode.ZERO), stationary_ris_pos=(400.0, 100.0))
    with pytest.raises(ValueError, match="not a geometry problem"):
        run(sc)


# (layer, x, altitude offset, speed offset) on a whole-metre grid; no two
# aircraft start on the same point.
_fleet = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 1999), st.integers(-50, 50), st.integers(-25, 5)),
    min_size=2,
    max_size=12,
    unique_by=lambda a: (a[1], 100 * a[0] + a[2]),
)


def _written(tr) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(tr, f"{tmp}/trace.csv")
        write_events(tr, f"{tmp}/events.csv")
        return Path(tmp, "trace.csv").read_bytes(), Path(tmp, "events.csv").read_bytes()


@settings(max_examples=30, deadline=None)
@given(rows=_fleet, ticks=st.integers(100, 160), seed=st.integers(0, 2**16))
def test_engine_invariants_on_random_fleets(rows, ticks, seed):
    """Switching rows run from an LS_REQ to its LS_DONE (or the end), LS
    events pair up per aircraft and target layer, speed stays under the cap,
    residents stay inside their layer band, and a rerun is byte-identical.
    A run may instead end in a collision, which a rerun repeats."""
    specs = tuple(
        AircraftSpec(aid, lay, float(x), speed_offset=float(dv), altitude_offset=float(dh))
        for aid, (lay, x, dh, dv) in enumerate(rows)
    )
    sc = Scenario(aircraft=specs, duration_s=ticks * 0.1, seed=seed)
    assert validate_scenario(sc) == []
    try:
        tr = run(sc)
    except CollisionError as err:
        # a start too close to brake apart ends the run, the same way each time
        with pytest.raises(CollisionError, match=re.escape(str(err))):
            run(sc)
        return
    air, n = sc.airspace, len(specs)
    layer = tr.layer.reshape(ticks, n)
    switching = tr.mode.reshape(ticks, n) == MODE_SWITCHING
    for aid in range(n):
        ls = [
            (round(t / sc.dt), kind, int(detail.split("=")[1]))
            for t, a, kind, detail in tr.events
            if a == aid and kind in ("LS_REQ", "LS_DONE")
        ]
        assert [kind for _, kind, _ in ls] == ["LS_REQ", "LS_DONE"] * (len(ls) // 2) + [
            "LS_REQ"
        ] * (len(ls) % 2)
        expected = np.zeros(ticks, dtype=bool)
        for j in range(0, len(ls), 2):
            k_req, _, target = ls[j]
            assert abs(target - layer[k_req, aid]) == 1
            k_done = ticks
            if j + 1 < len(ls):
                k_done, _, landed = ls[j + 1]
                assert landed == target and layer[k_done, aid] == target
            expected[k_req:k_done] = True
        assert np.array_equal(switching[:, aid], expected)
    assert np.all(np.hypot(tr.vx, tr.vy) <= air.max_speed_mps + 1e-9)
    resident = ~switching.ravel()
    band = np.abs(tr.h[resident] - air.layer_altitude(tr.layer[resident]))
    assert np.all(band <= air.layer_spacing_m / 2.0)
    assert _written(run(sc)) == _written(tr)
