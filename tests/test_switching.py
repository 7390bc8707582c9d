"""Layer-change planning and the fleet's back-off arbitration state."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamsim.airspace import AirspaceConfig, fleet_state, ring_offset
from uamsim.engine import validate_scenario
from uamsim.scenarios import get_scenario
from uamsim.switching import (
    BACKOFF_CAP,
    MODE_BACKING_OFF,
    MODE_CRUISE,
    MODE_SWITCHING,
    Streams,
    SwitchState,
    backoff_step,
    optimal_switch_acceleration,
    switch_acceleration_profile,
    switch_probability,
    target_layers,
)


def test_switch_probability_three_cases():
    assert switch_probability(200.0, 200.0, 149.0, 0.4) == 0.0
    assert switch_probability(120.0, 200.0, 149.0, 0.4) == pytest.approx(0.4)
    assert switch_probability(200.0, 120.0, 149.0, 0.4) == pytest.approx(0.4)
    assert switch_probability(120.0, 120.0, 149.0, 0.4) == pytest.approx(0.8)
    assert switch_probability(10.0, 10.0, 149.0, 0.5) == 1.0
    with pytest.raises(ValueError):
        switch_probability(1.0, 1.0, 2.0, 0.6)
    # elementwise: each entry is the scalar call on that entry
    front = np.array([200.0, 120.0, 200.0, 120.0, 10.0, 149.0])
    rear = np.array([200.0, 200.0, 120.0, 120.0, 10.0, 148.0])
    d_safe = np.array([149.0, 149.0, 149.0, 149.0, 149.0, 149.0])
    for p in (0.0, 0.4, 0.5):
        got = switch_probability(front, rear, d_safe, p)
        assert got.tolist() == [switch_probability(*c, p) for c in zip(front, rear, d_safe)]


def test_manoeuvre_identities_hold_everywhere():
    """dv = ax t, H = ay t^2 / 4 and ax^2 + ay^2 = a_max^2, random sweep;
    one call on the whole sweep equals the scalar call at every point."""
    rng = np.random.default_rng(12345)
    dvs = rng.uniform(-30.0, 30.0, 20000)
    heights = rng.uniform(50.0, 200.0, 20000)
    amaxs = rng.uniform(1.0, 10.0, 20000)
    plans = optimal_switch_acceleration(0.0, dvs, heights, amaxs)
    worst = 0.0
    for k, (dv, height, amax) in enumerate(zip(dvs.tolist(), heights.tolist(), amaxs.tolist())):
        plan = optimal_switch_acceleration(0.0, dv, height, amax)
        assert (plans.ax[k], plans.ay[k], plans.duration[k]) == (plan.ax, plan.ay, plan.duration)
        t = plan.duration
        r1 = abs(plan.ax * t - dv) / max(1.0, abs(dv))
        r2 = abs(plan.ay * t * t / 4.0 - height) / height
        r3 = abs(plan.ax**2 + plan.ay**2 - amax * amax) / (amax * amax)
        worst = max(worst, r1, r2, r3)
    print(f"worst identity residual over 2e4 draws: {worst:.2e}")
    assert worst < 1e-9


def test_pure_climb_uses_full_budget_vertically():
    plan = optimal_switch_acceleration(45.0, 45.0, 100.0, 5.0)
    assert plan.ax == pytest.approx(0.0, abs=1e-12)
    assert plan.ay == pytest.approx(5.0, rel=1e-12)
    assert plan.duration == pytest.approx(2.0 * math.sqrt(100.0 / 5.0), rel=1e-12)


def test_profile_sign_flip_both_directions():
    plan = optimal_switch_acceleration(45.0, 60.0, 100.0, 5.0)
    up_lo = switch_acceleration_profile(120.0, 100.0, 200.0, plan.ax, plan.ay)
    up_hi = switch_acceleration_profile(180.0, 100.0, 200.0, plan.ax, plan.ay)
    assert up_lo[1] > 0 > up_hi[1]
    assert up_lo[0] == up_hi[0] == plan.ax
    down_hi = switch_acceleration_profile(180.0, 200.0, 100.0, plan.ax, plan.ay)
    down_lo = switch_acceleration_profile(120.0, 200.0, 100.0, plan.ax, plan.ay)
    assert down_hi[1] < 0 < down_lo[1]


def test_profile_is_elementwise():
    """One call steers a whole set of switching rows, each by its own plan."""
    h = np.array([120.0, 180.0, 180.0, 120.0])
    start = np.array([100.0, 100.0, 200.0, 200.0])
    target = np.array([200.0, 200.0, 100.0, 100.0])
    ax, ay = switch_acceleration_profile(h, start, target, np.arange(4.0), np.full(4, 3.0))
    assert ax.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert ay.tolist() == [3.0, -3.0, -3.0, 3.0]


def test_manoeuvre_rejects_degenerate_input():
    with pytest.raises(ValueError):
        optimal_switch_acceleration(45.0, 60.0, 0.0, 5.0)
    with pytest.raises(ValueError):
        optimal_switch_acceleration(45.0, 60.0, 100.0, -1.0)
    # one non-positive altitude change anywhere fails the whole array
    for bad in (0.0, -100.0):
        with pytest.raises(ValueError, match="altitude change"):
            optimal_switch_acceleration(45.0, np.full(3, 60.0), np.array([100.0, bad, 100.0]), 5.0)


# seeds of one word, of the largest one and two words, of three words, and
# of seven words (more than the seed sequence's pool of four)
_seeds = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 12345]) | st.integers(
    0, 2**256
)
# the back-off ceilings, and ceilings near 2**32 whose draws are often rejected
_ceilings = st.integers(1, BACKOFF_CAP) | st.integers(2**31, 2**32)


@settings(max_examples=200, deadline=None)
@given(seed=_seeds, n=st.integers(1, 12), data=st.data())
def test_streams_draw_what_numpy_draws(seed, n, data):
    """Row i of ``Streams(seed, n)`` draws what ``Generator(PCG64(c))`` draws
    for the i-th child of ``SeedSequence(seed).spawn(n)``, bit for bit, over
    mixed ``random``/``integers`` calls on random row subsets in random
    order, so the one-word buffer carries across calls."""
    streams = Streams(seed, n)
    rngs = [np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(seed).spawn(n)]
    for _ in range(data.draw(st.integers(1, 25))):
        rows = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        if data.draw(st.booleans()):
            got = streams.random(np.array(rows, dtype=int))
            assert got.tolist() == [rngs[i].random() for i in rows]
        else:
            ceilings = data.draw(st.lists(_ceilings, min_size=len(rows), max_size=len(rows)))
            got = streams.integers(rows, ceilings)
            assert got.dtype == np.int64
            assert got.tolist() == [rngs[i].integers(1, m + 1) for i, m in zip(rows, ceilings)]


def test_streams_reject_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        Streams(-1, 3)


def test_automaton_arm_and_cancel_bookkeeping():
    streams = Streams(1, 1)
    state = SwitchState(1, initial_backoff=2)
    state.arm([0], [2], streams)
    assert state.mode[0] == MODE_BACKING_OFF
    assert state.target[0] == 2
    assert 1 <= state.backoff[0] <= 2
    # escalate the ceiling: the counter waits at 0 for the draw after the pass
    backoff_step(state, 0, separation_restored=False, foreign_request=True)
    assert state.backoff_max[0] == 4
    assert state.backoff[0] == 0
    state.draw(streams)
    assert 1 <= state.backoff[0] <= 4
    # then cancel: escalation survives, mode resets
    state.cancel(0)
    assert state.mode[0] == MODE_CRUISE
    assert state.backoff_max[0] == 4
    assert state.backoff[0] == 4
    # landing restores the initial ceiling
    state.arm([0], [2], streams)
    state.mode[0] = MODE_SWITCHING
    landed = state.capture(np.array([199.0]), np.array([0.5]), np.array([200.0]), 2.0, 1.0)
    assert landed.tolist() == [0]
    assert state.mode[0] == MODE_CRUISE
    assert state.backoff_max[0] == 2


def test_capture_needs_the_band_and_a_slow_climb():
    state = SwitchState(4, initial_backoff=2)
    state.mode[:3] = MODE_SWITCHING
    h = np.array([198.5, 197.0, 201.0, 200.0])
    vy = np.array([0.9, 0.0, -1.5, 0.0])
    landed = state.capture(h, vy, np.full(4, 200.0), 2.0, 1.0)
    # row 1 is outside the band, row 2 too fast, row 3 was not switching
    assert landed.tolist() == [0]
    assert state.mode.tolist() == [MODE_CRUISE, MODE_SWITCHING, MODE_SWITCHING, MODE_CRUISE]


def test_backoff_counts_down_to_release():
    streams = Streams(2, 1)
    state = SwitchState(1, initial_backoff=3)
    state.arm([0], [1], streams)
    drawn = int(state.backoff[0])
    assert 1 <= drawn <= 3
    fired = [backoff_step(state, 0, False, False) for _ in range(drawn)]
    assert fired == [False] * (drawn - 1) + [True]
    assert all(type(f) is bool for f in fired)
    assert state.mode[0] == MODE_SWITCHING


def test_restored_separation_cancels():
    state = SwitchState(1, initial_backoff=2)
    state.arm([0], [0], Streams(3, 1))
    released = backoff_step(state, 0, separation_restored=True, foreign_request=False)
    assert not released
    assert state.mode[0] == MODE_CRUISE


def test_foreign_request_doubles_and_redraws():
    streams = Streams(4, 1)
    seen_max = []
    draws = []
    state = SwitchState(1, initial_backoff=2)
    state.arm([0], [1], streams)
    for _ in range(8):
        backoff_step(state, 0, False, True)
        state.draw(streams)  # the redraw after the pass
        seen_max.append(int(state.backoff_max[0]))
        draws.append(int(state.backoff[0]))
        assert 1 <= state.backoff[0] <= state.backoff_max[0]
    assert seen_max == [4, 8, 16, 32, 32, 32, 32, 32]
    print(f"redraw sequence under sustained contention: {draws}")


def test_redraw_spans_the_whole_window():
    """10^4 redraws at a fixed ceiling hit every value in [1, ceiling]."""
    streams = Streams(5, 1)
    counts = np.zeros(33, dtype=int)
    for _ in range(10000):
        state = SwitchState(1, initial_backoff=16)
        state.arm([0], [1], streams)
        backoff_step(state, 0, False, True)  # doubles to 32
        state.draw(streams)  # redraws
        counts[state.backoff[0]] += 1
    assert counts[0] == 0
    assert np.all(counts[1:33] > 0)
    spread = counts[1:33].std() / counts[1:33].mean()
    print(f"redraw histogram spread (cv): {spread:.3f}")
    assert spread < 0.2


def test_contenders_never_commit_together():
    """Two mutually audible aircraft must not release on the same tick.

    Requests travel on the shared control plane: within a tick the second
    craft already hears the first one's release and re-randomizes.  Across
    10^4 seeded trials the same-tick commit frequency stays under 2% (it is
    zero by construction here; the bound is what the design promises).
    """
    streams = Streams(600, 2)  # row 0 is a, row 1 is b
    simultaneous = 0
    for _ in range(10000):
        state = SwitchState(2, initial_backoff=2)
        state.arm([0, 1], [1, 1], streams)
        released_prev_a = released_prev_b = False
        for _tick in range(200):
            rel_a = rel_b = False
            if state.mode[0] == MODE_BACKING_OFF:
                rel_a = backoff_step(state, 0, False, released_prev_b)
            if state.mode[1] == MODE_BACKING_OFF:
                # same-tick hearing: a's release this tick already counts
                rel_b = backoff_step(state, 1, False, rel_a or released_prev_a)
            state.draw(streams)  # the escalated counters, after the pass
            if rel_a and rel_b:
                simultaneous += 1
                break
            if not np.any(state.mode == MODE_BACKING_OFF):
                break
            released_prev_a, released_prev_b = rel_a, rel_b
    freq = simultaneous / 10000.0
    print(f"same-tick commits: {simultaneous} / 10000 ({freq:.4%})")
    assert freq < 0.02


def test_backoff_requires_pending():
    state = SwitchState(1, initial_backoff=2)
    with pytest.raises(ValueError):
        backoff_step(state, 0, False, False)


def test_bad_initial_backoff():
    for bad in (0, BACKOFF_CAP + 1):
        sc = replace(get_scenario("fig12-ipr"), initial_backoff=bad)
        assert validate_scenario(sc) == [f"initial back-off must lie in [1, {BACKOFF_CAP}]"]
    assert validate_scenario(replace(get_scenario("fig12-ipr"), initial_backoff=BACKOFF_CAP)) == []


def test_capture_band_must_stay_under_half_the_spacing():
    """A narrower band is what makes every capture lie past the midpoint."""
    sc = get_scenario("fig12-ipr")
    half = sc.airspace.layer_spacing_m / 2.0
    assert validate_scenario(replace(sc, capture_band_m=half)) == [
        "capture band must be under half the layer spacing"
    ]
    assert validate_scenario(replace(sc, capture_band_m=half - 0.5)) == []


def _pick_target_layer(i, x, layer, resident, window, course):
    """Reference: the per-row rule the engine ran before the array step.
    Adjacent layer with the thinner local population among the current
    residents; ties go up."""
    candidates = [lay for lay in (layer[i] - 1, layer[i] + 1) if 0 <= lay <= 2]
    best_layer = -1
    best_count = -1
    for lay in candidates:
        members = np.where((layer == lay) & resident)[0]
        dx = np.abs(ring_offset(x[members] - x[i], course))
        count = int(np.sum(dx <= window))
        if best_layer < 0 or count < best_count or (count == best_count and lay > best_layer):
            best_layer, best_count = lay, count
    return best_layer


def _row_order_pass(rows, x, layer, resident, released, window, course):
    """Reference: the old mixed pass in row order.  Released rows are still
    resident when it starts and leave at their turn; a triggering row picks
    its layer at its own turn."""
    live = resident | released
    picks = []
    for j in range(len(x)):
        live[j] &= not released[j]
        if j in rows:
            picks.append(_pick_target_layer(j, x, layer, live, window, course))
    return picks


def _target_layers(rows, x, layer, resident, released, window):
    """``target_layers`` on a 2 km course, for the fleet the back-off pass
    starts from: the ``resident`` rows and the rows it ``released``."""
    x, layer = np.array(x, dtype=float), np.array(layer)
    resident, released = np.array(resident, dtype=bool), np.array(released, dtype=bool)
    n = len(x)
    fleet = fleet_state(
        x, np.zeros(n), np.zeros(n), np.zeros(n), layer, resident | released, np.arange(n),
        AirspaceConfig(),
    )
    return target_layers(np.array(rows, dtype=int), fleet, released, window, 2000.0)


def _targets(rows, x, layer, resident, released, window=500.0):
    return _target_layers(rows, x, layer, resident, released, window).tolist()


# (x on a 50 m grid, layer, role in the pass, triggers if resident)
_craft = st.tuples(
    st.integers(0, 39),
    st.integers(0, 2),
    st.sampled_from(("resident", "released", "switching")),
    st.booleans(),
)


# off-grid x: a shift in [0, 50) per aircraft, and the two aircraft whose
# ring offset becomes the window: a triggering row of the middle layer, and
# a resident of the high layer
_edge = st.tuples(
    st.lists(st.floats(0.0, 50.0, exclude_max=True), min_size=9, max_size=9),
    st.integers(0, 8),
    st.integers(0, 8),
)


@settings(max_examples=400, deadline=None)
@given(
    craft=st.lists(_craft, min_size=1, max_size=9),
    window=st.sampled_from([50.0, 100.0, 500.0, 999.0, 1000.0, 1500.0]) | st.floats(1.0, 3000.0),
    edge=st.none() | _edge,
)
def test_target_layers_match_the_row_order_pass(craft, window, edge):
    """The array step picks what the per-row rule picked in the row-order
    pass, for random small fleets, windows up to beyond half the course
    included.  With ``edge``, x leaves the grid and the window is a ring
    offset between two aircraft, so the window's edge is hit exactly in
    floating point."""
    x = np.array([50.0 * c[0] for c in craft])
    if edge is not None:
        shift, i, j = edge
        i, j = i % len(craft), j % len(craft)
        x = (x + shift[: len(x)]) % 2000.0
        window = float(np.abs(ring_offset(x[j] - x[i], 2000.0)))
        if i != j:
            craft = list(craft)
            craft[i], craft[j] = (0, 1, "resident", True), (0, 2, "resident", False)
    layer = np.array([c[1] for c in craft])
    resident = np.array([c[2] == "resident" for c in craft])
    released = np.array([c[2] == "released" for c in craft])
    rows = np.flatnonzero(resident & np.array([c[3] for c in craft]))
    got = _target_layers(rows, x, layer, resident, released, window)
    assert got.tolist() == _row_order_pass(rows, x, layer, resident, released, window, 2000.0)


def test_target_layers_worked_cases():
    # one neighbour above, one below: the tie goes up
    assert _targets([0], [0, 100, 100], [1, 0, 2], [True] * 3, [False] * 3) == [2]
    # one neighbour more below than above: down
    assert _targets([0], [0, 100, 100, 200], [1, 2, 0, 2], [True] * 4, [False] * 4) == [0]
    # out of the window, or not resident, a neighbour does not count
    assert _targets([0], [0, 600, 100], [1, 2, 0], [True] * 3, [False] * 3) == [2]
    assert _targets([0], [0, 100, 100, 200], [1, 2, 0, 2], [1, 0, 1, 1], [0] * 4) == [2]
    # the ground and the high layer have one candidate each, however crowded
    layer = [0, 2, 1, 1, 1]
    assert _targets([0, 1], [0, 10, 20, 30, 40], layer, [True] * 5, [False] * 5) == [1, 1]
    # a row released at a lower row index has left layer 0 ...
    assert _targets([1], [0, 50, 100], [0, 1, 2], [0, 1, 1], [1, 0, 0]) == [0]
    # ... one released at a higher index still counts in layer 2
    assert _targets([0], [0, 50], [1, 2], [1, 0], [0, 1]) == [0]
