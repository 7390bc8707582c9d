"""Layer-change planning and the fleet's back-off arbitration state."""

import math
from dataclasses import replace

import numpy as np
import pytest

from uamsim.engine import validate_scenario
from uamsim.scenarios import get_scenario
from uamsim.switching import (
    BACKOFF_CAP,
    MODE_BACKING_OFF,
    MODE_CRUISE,
    MODE_SWITCHING,
    SwitchState,
    backoff_step,
    optimal_switch_acceleration,
    switch_acceleration_profile,
    switch_probability,
)


def test_switch_probability_three_cases():
    assert switch_probability(200.0, 200.0, 149.0, 0.4) == 0.0
    assert switch_probability(120.0, 200.0, 149.0, 0.4) == pytest.approx(0.4)
    assert switch_probability(200.0, 120.0, 149.0, 0.4) == pytest.approx(0.4)
    assert switch_probability(120.0, 120.0, 149.0, 0.4) == pytest.approx(0.8)
    assert switch_probability(10.0, 10.0, 149.0, 0.5) == 1.0
    with pytest.raises(ValueError):
        switch_probability(1.0, 1.0, 2.0, 0.6)


def test_manoeuvre_worked_point():
    # climb one 100 m layer while speeding up from 45 to 60 under a 5 m/s^2 cap
    plan = optimal_switch_acceleration(45.0, 60.0, 100.0, 5.0)
    assert plan.ay == pytest.approx(4.7267, abs=1e-3)
    assert plan.ax == pytest.approx(1.6306, abs=1e-3)
    assert plan.duration == pytest.approx(9.20, abs=5e-3)
    print(
        f"worked point: ax={plan.ax:.4f} ay={plan.ay:.4f} t={plan.duration:.4f}"
    )


def test_manoeuvre_identities_hold_everywhere():
    """dv = ax t, H = ay t^2 / 4 and ax^2 + ay^2 = a_max^2, random sweep."""
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(20000):
        dv = float(rng.uniform(-30.0, 30.0))
        height = float(rng.uniform(50.0, 200.0))
        amax = float(rng.uniform(1.0, 10.0))
        plan = optimal_switch_acceleration(0.0, dv, height, amax)
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


def test_automaton_arm_and_cancel_bookkeeping():
    rng = np.random.default_rng(1)
    state = SwitchState(1, initial_backoff=2)
    state.arm(0, 2, rng)
    assert state.mode[0] == MODE_BACKING_OFF
    assert state.target[0] == 2
    assert 1 <= state.backoff[0] <= 2
    # escalate the ceiling, then cancel: escalation survives, mode resets
    backoff_step(state, 0, separation_restored=False, foreign_request=True, rng=rng)
    assert state.backoff_max[0] == 4
    state.cancel(0)
    assert state.mode[0] == MODE_CRUISE
    assert state.backoff_max[0] == 4
    assert state.backoff[0] == 4
    # landing restores the initial ceiling
    state.arm(0, 2, rng)
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
    rng = np.random.default_rng(2)
    state = SwitchState(1, initial_backoff=3)
    state.arm(0, 1, rng)
    drawn = int(state.backoff[0])
    assert 1 <= drawn <= 3
    fired = [backoff_step(state, 0, False, False, rng) for _ in range(drawn)]
    assert fired == [False] * (drawn - 1) + [True]
    assert all(type(f) is bool for f in fired)
    assert state.mode[0] == MODE_SWITCHING


def test_restored_separation_cancels():
    rng = np.random.default_rng(3)
    state = SwitchState(1, initial_backoff=2)
    state.arm(0, 0, rng)
    released = backoff_step(state, 0, separation_restored=True, foreign_request=False, rng=rng)
    assert not released
    assert state.mode[0] == MODE_CRUISE


def test_foreign_request_doubles_and_redraws():
    rng = np.random.default_rng(4)
    seen_max = []
    draws = []
    state = SwitchState(1, initial_backoff=2)
    state.arm(0, 1, rng)
    for _ in range(8):
        backoff_step(state, 0, False, True, rng)
        seen_max.append(int(state.backoff_max[0]))
        draws.append(int(state.backoff[0]))
        assert 1 <= state.backoff[0] <= state.backoff_max[0]
    assert seen_max == [4, 8, 16, 32, 32, 32, 32, 32]
    print(f"redraw sequence under sustained contention: {draws}")


def test_redraw_spans_the_whole_window():
    """10^4 redraws at a fixed ceiling hit every value in [1, ceiling]."""
    rng = np.random.default_rng(5)
    counts = np.zeros(33, dtype=int)
    for _ in range(10000):
        state = SwitchState(1, initial_backoff=16)
        state.arm(0, 1, rng)
        backoff_step(state, 0, False, True, rng)  # doubles to 32, redraws
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
    rng_a = np.random.default_rng(600)
    rng_b = np.random.default_rng(601)
    simultaneous = 0
    for _ in range(10000):
        state = SwitchState(2, initial_backoff=2)
        state.arm(0, 1, rng_a)
        state.arm(1, 1, rng_b)
        released_prev_a = released_prev_b = False
        for _tick in range(200):
            rel_a = rel_b = False
            if state.mode[0] == MODE_BACKING_OFF:
                rel_a = backoff_step(state, 0, False, released_prev_b, rng_a)
            if state.mode[1] == MODE_BACKING_OFF:
                # same-tick hearing: a's release this tick already counts
                rel_b = backoff_step(state, 1, False, rel_a or released_prev_a, rng_b)
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
    rng = np.random.default_rng(9)
    state = SwitchState(1, initial_backoff=2)
    with pytest.raises(ValueError):
        backoff_step(state, 0, False, False, rng)


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
