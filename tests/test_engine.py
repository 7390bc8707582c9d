"""Whole-simulator behaviour: determinism, invariants, episode accounting."""

import math
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from uamsim import engine, fields, scenarios, switching, textfmt
from uamsim.airspace import fleet_state
from uamsim.fields import CollisionError, FieldWeights
from uamsim.switching import MODE_BACKING_OFF, MODE_CRUISE, MODE_NAMES, MODE_SWITCHING
from field_reference import composite_field_total
from trace_reference import first_difference, write_trace_per_row
from uamsim.engine import (
    AircraftSpec,
    PhaseMode,
    Scenario,
    EPISODE_MERGE_WINDOW_S,
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
    late = (tr.t > 6.0)[:, None]
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


def _recorded_log(trace):
    """Each tick's conflict pairs, rebuilt from the states the trace records:
    a row recorded Switching is no resident."""
    sc, ids = trace.scenario, trace.ids
    log = []
    for k in range(len(trace.x)):
        fleet = fleet_state(
            trace.x[k], trace.h[k], trace.vx[k], trace.vy[k], trace.layer[k],
            trace.mode[k] != MODE_SWITCHING, ids, sc.airspace,
        )
        log.append((k, fleet.conflicts))
    return log


def test_the_dense_fleet_logs_the_conflicts_of_its_recorded_states():
    """On ``fig12-ipr-dense`` a release opens gaps: when a row leaves from
    between two ring neighbours, they are neighbours in the state the trace
    records, and their conflict is in the episodes."""
    trace = run(scenarios.get_scenario("fig12-ipr-dense", seed=1))
    assert trace.episodes == merge_episodes(_recorded_log(trace), trace.ids, trace.scenario.dt)
    assert len(trace.episodes) == 398


@settings(max_examples=30, deadline=None)
@given(
    per_layer=st.integers(1, 40),
    seed=st.integers(1, 10**6),
    ticks=st.integers(1, 30),
    # the default, and a coefficient that puts adjacent-layer residents in reach
    coeff=st.sampled_from([0.5, 10.0]),
)
def test_the_episodes_are_those_of_the_recorded_states(per_layer, seed, ticks, coeff):
    """The episode log is a function of the trace: merging the conflicts
    rebuilt from each recorded tick gives the run's episodes."""
    sc = scenarios.congestion_scenario(per_layer, seed)
    sc = replace(
        sc, duration_s=ticks * sc.dt,
        airspace=replace(sc.airspace, vertical_separation_coeff=coeff),
    )
    trace = run(sc)
    if any(kind == "LS_REQ" for _, _, kind, _ in trace.events):
        event("a row released")
    assert trace.episodes == merge_episodes(_recorded_log(trace), trace.ids, sc.dt)


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
    assert np.max(np.abs(np.diff(tr.vx, axis=0))) < 1.0


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
    row = tr.ids.tolist().index(aid)
    after = tr.t > t_done + 0.2
    assert np.all(tr.layer[after, row][:5] == target)
    # captured close to the layer altitude
    h_after = tr.h[after, row][:5]
    assert np.all(np.abs(h_after - target * 100.0) < 5.0)


def test_served_pair_tie_goes_to_the_lowest_row():
    """Both layer-2 aircraft are exactly 250 m from the base station, and
    the lower row is served although the other has the smaller x."""
    sc = Scenario(
        aircraft=(
            AircraftSpec(0, 2, x=150.0),
            AircraftSpec(1, 2, x=70.0, altitude_offset=40.0),
            AircraftSpec(2, 1, x=100.0),
        ),
        duration_s=0.1,
    )
    tr = run(sc)
    assert tr.capacity_bps[0, 0] > 0.0
    assert tr.capacity_bps[0, 1] == 0.0


def test_backoff_contention_is_local():
    """Rows 0-1 and rows 2-3 are two separate conflicts, all four backing
    off but row 3.  Row 0 releases its switch; its partner, row 1, hears the
    request in the same pass and redraws under a doubled ceiling after the
    pass, while row 2, whose only partner is row 3, counts down."""
    xs = (0.0, 50.0, 1000.0, 1050.0)
    sc = Scenario(aircraft=tuple(AircraftSpec(i, 0, x=x) for i, x in enumerate(xs)))
    eng = engine._Engine(sc)
    fleet = eng._fleet()
    assert fleet.conflicts.tolist() == [0 * 4 + 1, 2 * 4 + 3]
    sw = eng.switch
    for i, counter in ((0, 1), (1, 2), (2, 2)):
        sw.mode[i], sw.target[i], sw.backoff[i] = MODE_BACKING_OFF, 1, counter
    fired = eng._switch_logic(0.0, fleet)
    assert fired.tolist() == [True, False, False, False]
    assert sw.backoff_max[1] == 4
    assert 1 <= sw.backoff[1] <= 4  # redrawn after the pass
    assert (sw.backoff_max[2], sw.backoff[2]) == (2, 1)


def _switch_and_stream_bytes(eng):
    sw, streams = eng.switch, eng.streams
    return [
        a.tobytes()
        for a in (sw.mode, sw.backoff_max, sw.backoff, sw.target, sw.ax, sw.ay, streams.hi,
                  streams.lo, streams.inc_hi, streams.inc_lo, streams.word, streams.has_word)
    ]


def test_a_tick_with_nothing_to_arbitrate_changes_no_state(monkeypatch):
    """No ring conflict and no backing-off row: ``_switch_logic`` returns all
    False and leaves every switch and stream array as it was, with a
    cross-layer conflict in the fleet's list and a row mid-switch.  Row 3,
    5 m behind row 0 round the ring and 5 m above it, closes on it from
    layer 1 at 15 m/s.  With no row to step or trigger, the pass returns
    before it picks a target layer.  At ``switch_prob`` 0 no tick has one:
    the crowded ``fig12-ipr-dense`` flies 2 s without a draw or a request."""
    targeted = []
    monkeypatch.setattr(engine, "target_layers", lambda *args: targeted.append(args))
    specs = (
        AircraftSpec(0, 0, x=0.0),
        AircraftSpec(1, 0, x=400.0),
        AircraftSpec(2, 0, x=800.0),
        AircraftSpec(3, 1, x=1995.0, altitude_offset=-95.0),
        AircraftSpec(4, 2, x=1000.0),
    )
    eng = engine._Engine(Scenario(aircraft=specs))
    sw = eng.switch
    sw.mode[4], sw.target[4], sw.ax[4], sw.ay[4] = MODE_SWITCHING, 1, -1.0, 3.0
    fleet = eng._fleet()
    assert fleet.conflicts.tolist() == [0 * 5 + 3]
    before = _switch_and_stream_bytes(eng)
    fired = eng._switch_logic(0.0, fleet)
    assert fired.dtype == bool and fired.tolist() == [False] * 5
    assert _switch_and_stream_bytes(eng) == before
    assert targeted == []

    def no_draw(*args):
        raise AssertionError("a stream was drawn from")

    monkeypatch.setattr(switching.Streams, "random", no_draw)
    monkeypatch.setattr(switching.Streams, "integers", no_draw)
    tr = run(replace(scenarios.get_scenario("fig12-ipr-dense"), switch_prob=0.0, duration_s=2.0))
    assert len(tr.episodes) > 0 and targeted == []
    assert not [e for e in tr.events if e[2] == "LS_REQ"]


# NumPy's Python-level wrappers: the dispatchers in these modules cost a few
# microseconds a call, more than the C method they end in on a small array.
# The multiarray dispatcher stubs and the ndarray methods' _methods are not
# counted.
_NUMPY_WRAPPERS = ("fromnumeric.py", "numeric.py", "shape_base.py")


def _numpy_wrapper_calls(sc) -> int:
    calls = 0

    def profile(frame, kind, arg):
        nonlocal calls
        if kind == "call":
            path = frame.f_code.co_filename.replace("\\", "/")
            if "/numpy/" in path and (path.endswith(_NUMPY_WRAPPERS) or "/numpy/lib/" in path):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run(sc)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("name", ["fig6-airborne", "fig9-phase"])
def test_the_relay_tick_calls_no_numpy_wrapper(name):
    """Doubling a relay run's length adds no call into NumPy's Python-level
    wrappers: every one it makes is set-up or summary work, none per tick."""
    sc = scenarios.get_scenario(name)
    assert _numpy_wrapper_calls(_short(sc, 4.0)) == _numpy_wrapper_calls(_short(sc, 8.0))


def test_forces_steer_without_the_rows_released_this_tick(monkeypatch):
    """The fleet that ``_accelerations`` receives holds the residents left
    after the back-off pass: a row released on that tick is in neither its
    ``resident`` mask nor its resident order, so it is no resident's
    preceding aircraft, the next resident of its ring."""
    released, seen = [], []
    switch_logic, accelerations = engine._Engine._switch_logic, engine._Engine._accelerations

    def logged_switch_logic(self, *args):
        fired = switch_logic(self, *args)
        released.append(np.flatnonzero(fired))
        return fired

    def checked_accelerations(self, fleet):
        rows = released[-1]
        seen.append(len(rows))
        assert np.array_equal(fleet.resident, self.switch.resident)
        assert not np.isin(rows, fleet.order).any()
        return accelerations(self, fleet)

    monkeypatch.setattr(engine._Engine, "_switch_logic", logged_switch_logic)
    monkeypatch.setattr(engine._Engine, "_accelerations", checked_accelerations)
    run(_short(scenarios.get_scenario("fig12-ipr-dense", seed=1), 3.0))
    assert len(seen) == 30 and sum(seen) > 0


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


_POS = "base station and surface positions must be two finite numbers"
_PROBLEM = {
    "dt": "dt must be positive and finite",
    "duration_s": "duration must be positive and finite",
    "bs_pos": _POS,
    "ris_pos": _POS,
    "name": "name must not have outer whitespace or a line break",
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("dt", math.nan),
        ("dt", math.inf),
        ("duration_s", math.inf),
        ("duration_s", math.nan),
        ("bs_pos", (1.0, 2.0, 3.0)),
        ("bs_pos", (-math.inf, 0.0)),
        ("ris_pos", (400.0,)),
        ("ris_pos", (400.0, math.nan)),
        ("name", " fig6"),
        ("name", "fig6\t"),
        ("name", "fig\n6"),
        ("name", "fig\r6"),
    ],
    ids=repr,
)
def test_validate_rejects_what_a_run_or_a_file_cannot_take(key, value):
    """Non-finite times once passed validation and crashed the run; a third
    coordinate was silently dropped; a padded or broken name did not come
    back from the scenario file."""
    sc = replace(scenarios.get_scenario("fig6-airborne"), **{key: value})
    assert validate_scenario(sc) == [_PROBLEM[key]]
    with pytest.raises(ValueError, match="invalid scenario"):
        run(sc)


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
    # whole relative to dt: 1e-9 and 1e-10 were both whole at one decimal
    assert [time_decimals(dt) for dt in (1e-9, 2.5e-8, 1e-10, 100.00001)] == [9, 9, 9, 5]


def test_nanosecond_steps_print_one_timestamp_per_tick(tmp_path):
    """At dt = 1e-9 the trace prints k * dt for tick k, ten distinct times;
    a finer step, whose ticks 9 decimals would print alike, is rejected."""
    sc = replace(scenarios.get_scenario("fig12-ipr", seed=1), dt=1e-9, duration_s=1e-8)
    tr = run(sc)
    write_trace(tr, str(tmp_path / "trace.csv"))
    assert _columns(tmp_path / "trace.csv") == [f"0.{k:09d}" for k in range(10) for _ in tr.ids]
    assert validate_scenario(replace(sc, dt=1e-10, duration_s=1e-9)) == [
        "dt must be at least 1e-9 s, the finest step 9 decimals print"
    ]


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
    assert _columns(tmp_path / "trace.csv") == [f"{t:.1f}" for t in tr.t for _ in tr.ids]


def _assert_same_trace_bytes(tr, tmp_path):
    write_trace(tr, str(tmp_path / "trace.csv"))
    write_trace_per_row(tr, str(tmp_path / "reference.csv"))
    written = (tmp_path / "trace.csv").read_bytes()
    reference = (tmp_path / "reference.csv").read_bytes()
    assert written == reference, first_difference(written, reference, len(tr.ids))


def test_first_difference_names_the_tick_and_row():
    reference = b"t,id\n0.0,1\n0.0,2\n0.1,1\n0.1,2\n"
    assert first_difference(reference.replace(b"0.1,2", b"0.1,3"), reference, 2) == (
        "first difference at line 5, (tick, row) = (1, 1):\n  written   b'0.1,3'\n  reference b'0.1,2'"
    )
    assert "line 1, the header" in first_difference(b"t\n", reference, 2)
    assert "line 4, (tick, row) = (1, 0):\n  written   b''" in first_difference(reference[:-12], reference, 2)


@pytest.mark.parametrize("dt", [0.05, 0.025], ids=["2-decimal", "3-decimal"])
@pytest.mark.parametrize("name", sorted(scenarios.BUILTIN))
def test_write_trace_matches_the_per_row_formatter(name, dt, tmp_path):
    """The golden digests pin dt 0.1 only; finer steps stamp more decimals."""
    tr = run(replace(scenarios.get_scenario(name, seed=1), dt=dt, duration_s=2.0))
    _assert_same_trace_bytes(tr, tmp_path)


def test_write_trace_matches_the_per_row_formatter_on_edge_values(tmp_path):
    tr = run(_short(scenarios.get_scenario("fig6-airborne", seed=1), 1.0))
    tr.x[0, 0] = tr.h[0, 1] = -0.0
    tr.vx[1, 0], tr.vy[1, 1], tr.vx[2, 2] = 1e15, -1e15, -1e-7
    tr.capacity_bps[2] = 0.0
    tr.capacity_bps[3, 0] = 1e15
    _assert_same_trace_bytes(tr, tmp_path)
    assert "-0.000000" in (tmp_path / "trace.csv").read_text()


def test_write_trace_matches_the_per_row_formatter_over_several_blocks(tmp_path):
    """congestion_scenario(100, 1) flown 3 s: 300 aircraft over 30 ticks,
    9000 rows, written in blocks of whole ticks, the last one short."""
    ticks_per_block = engine.TRACE_BLOCK_ROWS // 300
    assert 1 <= ticks_per_block < 30 and 30 % ticks_per_block
    tr = run(_short(scenarios.congestion_scenario(100, 1), 3.0))
    _assert_same_trace_bytes(tr, tmp_path)


def test_write_trace_matches_the_per_row_formatter_on_the_dense_fleet(tmp_path):
    """The 300-per-layer fleet at seed 1 flown 9 s (90 ticks of 900 rows).
    At tick 88, row 527, x = 1830.1837584999998: its millionths lie 1.6e-7
    below a rounding tie, a near tie the exact split must round down."""
    tr = run(_short(scenarios.congestion_scenario(300, 1), 9.0))
    assert tr.x[88, 527] == 1830.1837584999998
    _assert_same_trace_bytes(tr, tmp_path)


def test_write_trace_matches_the_per_row_formatter_on_wide_cells(tmp_path):
    """A 20 km course at a 1 MHz bandwidth: x from 10**4 m and capacities of
    eight digits, and vy set to -x on every other tick, so whole parts from
    10**4 up and from -10**3 down go through '%.6f' inside the strided
    x/h/vx/vy and capacity views of a block, beside cells that do not."""
    sc = _short(scenarios.get_scenario("fig6-airborne", seed=1), 2.0)
    sc = replace(sc, airspace=replace(sc.airspace, course_length_m=20000.0),
                 channel=replace(sc.channel, bandwidth_hz=1e6),
                 aircraft=tuple(replace(a, x=10.0 * a.x) for a in sc.aircraft))
    tr = run(sc)
    tr.vy[::2] = -tr.x[::2]
    assert tr.x.max() >= 1e4 and tr.vy.min() <= -1e4 and tr.x.min() < 1e3
    assert tr.capacity_bps.max() >= 1e7
    _assert_same_trace_bytes(tr, tmp_path)


def _relabelled(tr, ids):
    """The trace with its roster's ids replaced by ``ids``, in row order."""
    aircraft = tuple(replace(a, aircraft_id=i) for a, i in zip(tr.scenario.aircraft, ids))
    return replace(tr, scenario=replace(tr.scenario, aircraft=aircraft))


def test_write_trace_matches_the_per_row_formatter_on_every_roster_cell(tmp_path):
    """The cells rendered once per run: ids of one to seventeen digits, not
    contiguous; all nine layer/mode pairs; a partner of -1 and of every id."""
    tr = run(_short(scenarios.get_scenario("fig6-airborne", seed=1), 2.0))
    n_ticks, n = tr.x.shape
    ids = [7 * 13**j + j for j in range(n)]
    tr = _relabelled(tr, ids)
    k, j = np.indices((n_ticks, n))
    tr.layer[:], tr.mode[:] = divmod((k + j) % 9, 3)
    tr.ris_partner[:] = np.array([-1, *ids])[(k * n + j) % (n + 1)]
    assert len({*zip(tr.layer.ravel().tolist(), tr.mode.ravel().tolist())}) == 3 * len(MODE_NAMES)
    assert set(tr.ris_partner.ravel().tolist()) == {-1, *ids}
    assert len(str(ids[0])) == 1 and len(str(ids[-1])) == 17
    _assert_same_trace_bytes(tr, tmp_path)


@pytest.mark.parametrize(
    "key, value",
    [("layer", -1), ("layer", 3), ("mode", -1), ("mode", len(MODE_NAMES)),
     ("ris_partner", -2), ("ris_partner", 5), ("ris_partner", 10**6)],
)
def test_write_trace_rejects_a_cell_the_roster_cells_do_not_hold(key, value, tmp_path):
    """A layer, mode or partner outside the tables raises; a negative one
    must not wrap around to another cell.  Ids are 1000 apart, so 5 is none."""
    tr = run(_short(scenarios.get_scenario("fig6-airborne", seed=1), 1.0))
    tr = _relabelled(tr, [1000 * (j + 1) for j in range(len(tr.ids))])
    getattr(tr, key)[3, 2] = value
    with pytest.raises(ValueError, match=key.replace("ris_", "")):
        write_trace(tr, str(tmp_path / "trace.csv"))


def _cell_texts(cells):
    return [c.tobytes().translate(None, b"\0").decode() for c in cells.reshape(-1, cells.shape[-1])]


def _nudged(x, steps):
    """x moved |steps| floats up (steps > 0) or down."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_HARD_FLOATS = (
    0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 5e-7, 0.0078125, 0.9999995, 9.9999995,
    999.9999995, 9999.9999995, 1830.1837584999998, 1e15, 2.0**53, 2.0**63, 1e300, math.inf, math.nan,
)
_FLOATS = st.one_of(
    st.floats(),
    st.floats(-1e7, 1e7),
    st.builds(
        _nudged,
        st.builds(
            lambda base, sign: sign * base,
            st.sampled_from(_HARD_FLOATS) | st.builds(lambda k: k * 1e-6 + 5e-7, st.integers(0, 10**13)),
            st.sampled_from([1.0, -1.0]),
        ),
        st.integers(-3, 3),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FLOATS, min_size=1, max_size=30))
def test_float_cells_print_as_percent_f(values):
    """Byte for byte '%.6f': signed zeros and tiny negatives, subnormals,
    half-millionth ties and their neighbours, carries, huge and non-finite."""
    v = np.array(values)
    want = ["%.6f;" % x for x in values]
    for shape in (v.shape, (1, len(values), 1)):
        out = np.zeros((*shape, textfmt.float_words(v)), dtype=np.uint32)
        assert _cell_texts(textfmt.float_cells(v.reshape(shape), ";", out)) == want


def _parked_on_the_served_aircraft(phase_mode):
    return Scenario(
        name="parked",
        aircraft=(AircraftSpec(aircraft_id=7, layer=2, x=400.0),),
        ris_pos=(400.0, 200.0),
        phase_mode=phase_mode,
        duration_s=1.0,
    )


@pytest.mark.parametrize(
    "sc, zero_at, dark",
    [
        pytest.param(_parked_on_the_served_aircraft(PhaseMode.ZERO), [(0.0, 7)], 1, id="zero"),
        pytest.param(_parked_on_the_served_aircraft(PhaseMode.QUANTIZED), [(0.0, 7)], 5, id="quantized"),
        pytest.param(_parked_on_the_served_aircraft(PhaseMode.CONTINUOUS), [(0.0, 7)], 1, id="continuous"),
    ],
)
def test_coincident_surface_serves_nothing_and_says_so(sc, zero_at, dark):
    """A stationary surface on the served aircraft has a zero-length path:
    that tick serves nothing and records a ZERO_PATH event.  A quantized
    plan has no phases then, so nothing is served until the next plan."""
    tr = run(sc)
    zero = [e for e in tr.events if e[2] == "ZERO_PATH"]
    assert zero == [(t, k, "ZERO_PATH", "ris=-1") for t, k in zero_at]
    served = tr.capacity_bps.sum(axis=1)
    assert np.all(served[:dark] == 0.0)
    assert np.all(served[dark:] > 0.0)


def test_a_plan_whose_search_reaches_the_surface_serves_its_phases(monkeypatch):
    """fig9-phase's fixed surface put on layer 2 at x = 32.5: aircraft 10
    starts there at x = 0 with a 32.5 m planning horizon, so the plans at
    t = 0 and t = 0.5 search through the surface.  The window's phases come
    from the current geometry, whose ends do not coincide: both windows
    serve aircraft 10 with their phases and set no goals, and every tick
    serves."""
    sc = replace(
        scenarios.get_scenario("fig9-phase"),
        ris_pos=(32.5, 200.0),
        duration_s=2.0,
    )
    windows = []

    def recorded(eng, t, fleet):
        windows.append(plan(eng, t, fleet))
        return windows[-1]

    plan = engine._Engine._plan_comm
    monkeypatch.setattr(engine._Engine, "_plan_comm", recorded)
    tr = run(sc)
    assert [e for e in tr.events if e[2] == "ZERO_PATH"] == []
    assert np.all(tr.capacity_bps.sum(axis=1) > 0.0)
    for served, relay, phases, goals in windows[:2]:
        assert (tr.ids[served], relay, len(goals.rows)) == (10, -1, 0)
        assert phases is not None
    assert all(len(goals.rows) == 1 for *_, goals in windows[2:])


def test_a_served_aircraft_that_lands_inside_its_window_is_pulled_to_its_new_layer(monkeypatch):
    """fig12-ipr, seed 1, one window of 100 ticks: aircraft 10 (row 10) is
    served from t = 0, requests layer 1 at t = 0.2 and lands at t = 9.2.
    From the landing tick to the window's end the goal pull holds it at
    layer 1's altitude, 100 m, not at layer 2's."""
    pulls = []

    def spy(fleet, goals, weights, cfg, radius):
        gh = fields.goal_gradient(fleet, goals, cfg, weights.goal)[1][10]
        pulls.append((fleet.layer[10], gh, weights.goal * 2.0 * (fleet.h[10] - 100.0)))
        return force(fleet, goals, weights, cfg, radius)

    force = engine.force
    monkeypatch.setattr(engine, "force", spy)
    sc = replace(scenarios.get_scenario("fig12-ipr"), comm_interval=100, duration_s=10.0, seed=1)
    tr = run(sc)
    assert np.all(tr.capacity_bps[:, 10] > 0.0)
    assert (tr.layer[:92, 10] == 2).all() and (tr.layer[92:, 10] == 1).all()
    assert len(pulls) == 100
    for layer, gh, want in pulls[92:]:
        assert (layer, gh) == (1, want)


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
        switch_prob=0.0,
        duration_s=2.0,
    )
    assert validate_scenario(sc) == []
    with pytest.raises(CollisionError, match="aircraft 0 and 1 collided in layer 1"):
        run(sc)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_force_stops_the_run_at_its_tick(monkeypatch, bad):
    """A NaN or infinite acceleration on tick 3 raises, naming t = 0.3 s."""
    accelerations = engine._Engine._accelerations
    ticks = []

    def poisoned(self, fleet):
        ax, ay = accelerations(self, fleet)
        ticks.append(None)
        if len(ticks) == 4:
            ax[1] = bad
        return ax, ay

    monkeypatch.setattr(engine._Engine, "_accelerations", poisoned)
    with pytest.raises(RuntimeError, match=r"^non-finite force at t=0\.3$"):
        run(_short(scenarios.get_scenario("fig9-phase"), 1.0))


def test_other_capacity_errors_propagate(monkeypatch):
    def broken(*args):
        raise ValueError("not a geometry problem")

    monkeypatch.setattr(engine, "snr", broken)
    sc = replace(_parked_on_the_served_aircraft(PhaseMode.ZERO), ris_pos=(400.0, 100.0))
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


# A failing fleet is reported as drawn: shrinking one took minutes.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


def _fleet_scenario(rows, ticks, seed) -> Scenario:
    """A ``_fleet`` draw as a scenario of ``ticks`` steps, ids 0..n-1."""
    specs = tuple(
        AircraftSpec(aid, lay, float(x), speed_offset=float(dv), altitude_offset=float(dh))
        for aid, (lay, x, dh, dv) in enumerate(rows)
    )
    return Scenario(aircraft=specs, duration_s=ticks * 0.1, seed=seed)


def _written(tr) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(tr, f"{tmp}/trace.csv")
        write_events(tr, f"{tmp}/events.csv")
        return Path(tmp, "trace.csv").read_bytes(), Path(tmp, "events.csv").read_bytes()


@settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
@given(rows=_fleet, ticks=st.integers(100, 160), seed=st.integers(0, 2**16))
def test_engine_invariants_on_random_fleets(rows, ticks, seed):
    """Switching rows run from an LS_REQ to its LS_DONE (or the end), LS
    events pair up per aircraft and target layer, speed stays under the cap,
    residents stay inside their layer band, and a rerun is byte-identical.
    A run may instead end in a collision, which a rerun repeats."""
    sc = _fleet_scenario(rows, ticks, seed)
    assert validate_scenario(sc) == []
    try:
        tr = run(sc)
    except CollisionError as err:
        # a start too close to brake apart ends the run, the same way each time
        with pytest.raises(CollisionError, match=re.escape(str(err))):
            run(sc)
        return
    air, n = sc.airspace, len(sc.aircraft)
    switching = tr.mode == MODE_SWITCHING
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
            assert abs(target - tr.layer[k_req, aid]) == 1
            k_done = ticks
            if j + 1 < len(ls):
                k_done, _, landed = ls[j + 1]
                assert landed == target and tr.layer[k_done, aid] == target
            expected[k_req:k_done] = True
        assert np.array_equal(switching[:, aid], expected)
    assert np.all(np.hypot(tr.vx, tr.vy) <= air.max_speed_mps + 1e-9)
    resident = ~switching
    band = np.abs(tr.h[resident] - air.layer_altitude(tr.layer[resident]))
    assert np.all(band <= air.layer_spacing_m / 2.0)
    assert _written(run(sc)) == _written(tr)


STATE_ARRAYS = ("x", "h", "vx", "vy", "layer", "mode", "capacity_bps")


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _switches(tr) -> bool:
    switched = any(e[2] == "LS_REQ" for e in tr.events)
    event("switches" if switched else "no switch")
    return switched


@settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
@given(rows=_fleet, half=st.integers(50, 80), seed=st.integers(0, 2**16))
def test_a_run_of_half_the_time_is_the_first_half_of_the_run(rows, half, seed):
    """Prefix relation: no step looks at the run's length.  The first half
    of a run's eight raw arrays, and its events other than CFL and
    INTRUSION (merged at the end of a run), equal those of a run of half
    the time, bit for bit.  About half of the drawn fleets switch layers."""
    sc = _fleet_scenario(rows, 2 * half, seed)
    try:
        whole = run(sc)
    except CollisionError:
        return  # the half run may end before the collision; nothing to compare
    first = run(replace(sc, duration_s=half * sc.dt))
    _switches(whole)
    for key in (*STATE_ARRAYS, "ris_partner"):
        assert _same_bits(getattr(first, key), getattr(whole, key)[:half]), key

    def kept(tr):
        return [e for e in tr.events if e[2] not in ("CFL", "INTRUSION") and e[0] < half * sc.dt]

    assert kept(first) == [e for e in first.events if e[2] not in ("CFL", "INTRUSION")]
    assert kept(first) == kept(whole)


@pytest.mark.parametrize("name", ["fig6-airborne", "fig9-phase", "fig12-ipr", "fig12-ipr-dense"])
def test_a_builtin_cut_at_4_s_is_the_first_40_ticks_of_its_8_s_run(name):
    """The engine advances its state arrays in place; no stage holds a view
    of them from one tick to the next, so a run cut at 4 s records the
    first 40 ticks of the 8 s run, bit for bit, in all eight state arrays
    and in its events other than CFL and INTRUSION (merged at the end)."""
    sc = scenarios.get_scenario(name)
    cut, whole = run(_short(sc, 4.0)), run(_short(sc, 8.0))
    assert len(cut.x) == 40
    for key in (*STATE_ARRAYS, "ris_partner"):
        assert _same_bits(getattr(cut, key), getattr(whole, key)[:40]), key

    def kept(tr):
        return [e for e in tr.events if e[2] not in ("CFL", "INTRUSION") and e[0] < 39.5 * sc.dt]

    assert kept(cut) == [e for e in cut.events if e[2] not in ("CFL", "INTRUSION")]
    assert kept(cut) == kept(whole)


@settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
@given(rows=_fleet, ticks=st.integers(100, 160), seed=st.integers(0, 2**16))
def test_relabelled_ids_fly_the_same_fleet(rows, ticks, seed):
    """Relabelling relation: a stream belongs to the row, so adding 1000 to
    every id (which keeps the rows' order) changes no state array, and the
    served pair's partner id shifts by 1000 where it is set.  About half of
    the drawn fleets switch layers."""
    sc = _fleet_scenario(rows, ticks, seed)
    shifted = replace(
        sc, aircraft=tuple(replace(a, aircraft_id=a.aircraft_id + 1000) for a in sc.aircraft)
    )
    try:
        base = run(sc)
    except CollisionError:
        with pytest.raises(CollisionError):
            run(shifted)
        return
    moved = run(shifted)
    _switches(base)
    for key in STATE_ARRAYS:
        assert _same_bits(getattr(moved, key), getattr(base, key)), key
    partner = np.where(base.ris_partner >= 0, base.ris_partner + 1000, -1)
    assert _same_bits(moved.ris_partner, partner)
