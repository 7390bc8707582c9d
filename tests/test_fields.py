"""Field values and gradients of the fleet kernel, on small fleets."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from uamsim import engine, fields, scenarios
from uamsim.airspace import (
    AirspaceConfig, fleet_state, ring_offset, search_reach,
)
from uamsim.engine import AircraftSpec, Scenario, run
from uamsim.fields import NO_GOALS, CollisionError, FieldWeights, Goals
from uamsim.switching import MODE_BACKING_OFF

CFG = AirspaceConfig()
RADIUS = 300.0
KINDS = ("attract", "stabilize", "repulse", "layer", "goal")


def _fleet(rows, layer=1):
    """rows: (x, h, vx, vy) per aircraft, all resident in one layer."""
    x, h, vx, vy = (np.array(c, dtype=float) for c in zip(*rows))
    n = len(rows)
    return fleet_state(
        x, h, vx, vy, np.full(n, layer), np.ones(n, dtype=bool), np.arange(n), CFG
    )


def _band(fleet, radius=RADIUS):
    return fields.neighbour_band(fleet, CFG, radius)


def _values(fleet, goals):
    band = _band(fleet)
    return {
        "attract": fields.attract_value(fleet),
        "stabilize": fields.stabilize_value(fleet, CFG),
        "repulse": fields.repulse_value(fleet, band),
        "layer": fields.layer_value(fleet),
        "goal": fields.goal_value(fleet, goals, CFG),
    }


def _gradients(fleet, goals):
    band = _band(fleet)
    return {
        "attract": fields.attract_gradient(fleet),
        "stabilize": fields.stabilize_gradient(fleet, CFG),
        "repulse": fields.repulse_gradient(fleet, band),
        "layer": fields.layer_gradient(fleet),
        "goal": fields.goal_gradient(fleet, goals, CFG),
    }


# --- dense reference: each layer's (m, m) pair matrices, rows summed in order


def _dense_pairs(fleet, cfg, radius):
    """(members, sx, sh, dist, near) of every layer with two residents or
    more, members in row order; ``dist`` is infinite on the diagonal."""
    out = []
    for lay in range(3):
        members = np.sort(fleet.segment(lay))
        if len(members) < 2:
            continue
        x, h = fleet.x[members], fleet.h[members]
        sx = ring_offset(x[None, :] - x[:, None], cfg.course_length_m)
        sh = h[None, :] - h[:, None]
        dist = np.hypot(sx, sh)
        np.fill_diagonal(dist, np.inf)
        if np.any(dist == 0.0):
            a, b = np.argwhere(dist == 0.0)[0]
            ia, ib = fleet.ids[members[a]], fleet.ids[members[b]]
            raise CollisionError(f"aircraft {ia} and {ib} collided in layer {lay}")
        out.append((members, sx, sh, dist, dist <= radius))
    return out


def _in_order(terms):
    """Row sums that add each row's entries one by one, left to right."""
    return np.cumsum(terms, axis=1)[:, -1]


def _dense_repulsion(fleet, pairs):
    """Repulsion value and gradient, unweighted."""
    n = len(fleet.x)
    value, gx, gh = np.zeros(n), np.zeros(n), np.zeros(n)
    for members, sx, sh, dist, near in pairs:
        d_safe = fleet.d_safe[members][:, None]
        inside = near & (dist < d_safe)
        inv = np.where(inside, 1.0 / dist - 1.0 / d_safe, 0.0)
        scale = np.where(inside, -2.0 * inv / (dist * dist * dist), 0.0)
        value[members] = _in_order(inv * inv)
        gx[members] = _in_order(scale * -sx)
        gh[members] = _in_order(scale * -sh)
    return value, gx, gh


def _dense_consensus(fleet, pairs, gain):
    cx, ch = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    for members, _, _, _, near in pairs:
        deg = near.sum(axis=1)
        for out, v in ((cx, fleet.vx), (ch, fleet.vy)):
            out[members] = gain * (deg * v[members] - _in_order(np.where(near, v[members], 0.0)))
    return cx, ch


def _dense_force_and_total(fleet, goals, w, cfg, radius):
    pairs = _dense_pairs(fleet, cfg, radius)
    value, gx, gh = _dense_repulsion(fleet, pairs)
    fx, fh = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    for ax, ah in (
        fields.stabilize_gradient(fleet, cfg, w.stabilize),
        fields.layer_gradient(fleet, w.layer),
        fields.attract_gradient(fleet, w.attract),
        (w.repulse * gx, w.repulse * gh),
        _dense_consensus(fleet, pairs, w.consensus_gain),
        fields.goal_gradient(fleet, goals, cfg, w.goal),
    ):
        fx -= ax
        fh -= ah
    terms = (
        (w.stabilize, fields.stabilize_value(fleet, cfg)),
        (w.layer, fields.layer_value(fleet)),
        (w.attract, fields.attract_value(fleet)),
        (w.repulse, value),
        (w.goal, fields.goal_value(fleet, goals, cfg)),
    )
    return fx, fh, sum(wt * float(np.sum(v[fleet.resident])) for wt, v in terms)


# (layer, x as a fraction of the course, on a 40-point grid or off it,
# altitude offset, vx, vy, resident); no offset is so small that the cube of
# a distance underflows
_craft = st.tuples(
    st.integers(0, 2),
    st.integers(0, 39).map(lambda k: k / 40.0)
    | st.floats(0.0, 1.0, exclude_max=True).filter(lambda v: v == 0.0 or v >= 1e-9),
    st.sampled_from([0.0, 1.5]) | st.floats(-30.0, 30.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-9),
    st.floats(20.0, 60.0),
    st.floats(-3.0, 3.0),
    st.sampled_from([True, True, True, False]),
)


@settings(max_examples=300, deadline=None)
@given(
    craft=st.lists(_craft, min_size=1, max_size=16),
    course=st.sampled_from([200.0, 2000.0]),
    reach=st.sampled_from([0.1, 0.15, 0.5, 0.6, 2.0]) | st.floats(0.001, 2.0),
    goal=st.integers(0, 15),
    edge=st.none() | st.tuples(st.integers(0, 15), st.integers(0, 15)),
    nudge=st.none() | st.integers(-4, 4),
)
def test_band_matches_the_dense_reference(craft, course, reach, goal, edge, nudge):
    """The band's force and field total equal, bit for bit, those of dense
    per-layer pair matrices summed in order.  The fleets wrap the ring, have
    radii beyond half the course, lone residents, empty layers, non-residents
    and coincident x; a coincident point raises the same collision.  With
    ``edge``, two aircraft fly level in one layer, and the radius is the x
    offset between them: their distance meets it exactly.  With ``nudge``,
    the radius is the smallest ring gap moved by that many ulps, where the
    rounding slack decides whether the ring gaps alone show the band empty."""
    cfg = AirspaceConfig(course_length_m=course)
    lay, frac, dh, vx, vy, resident = (np.array(c) for c in zip(*craft))
    n = len(craft)
    x = (frac * course) % course
    radius = reach * course
    if edge is not None:
        i, j = edge[0] % n, edge[1] % n
        lay[j], dh[j], resident[[i, j]] = lay[i], dh[i], True
        radius = float(np.abs(ring_offset(x[j] - x[i], course))) or radius
    fleet = fleet_state(
        x, lay * cfg.layer_spacing_m + dh, vx, vy, lay, resident, np.arange(n) * 7 + 3, cfg
    )
    rows = (np.arange(n) == goal).nonzero()[0]
    goals = Goals(rows, np.full(len(rows), 0.3 * course))
    paired = fleet.order[fleet.prec[fleet.order] >= 0]
    gap = fleet.ahead_x[paired].min() if len(paired) else np.inf
    if nudge is not None and 0.0 < gap < np.inf:
        radius = gap + nudge * np.spacing(gap)
    if abs(gap - radius) <= 4 * np.spacing(course):
        event("smallest ring gap within 4 ulps of the radius")
    w = FieldWeights()
    try:
        want = _dense_force_and_total(fleet, goals, w, cfg, radius)
    except CollisionError as exc:
        for call in (fields.force, fields.potential):
            with pytest.raises(CollisionError) as got:
                call(fleet, goals, w, cfg, radius)
            assert str(got.value) == str(exc)
        return
    with mock.patch.object(fields, "ring_pairs", wraps=fields.ring_pairs) as search:
        fx, fh = fields.force(fleet, goals, w, cfg, radius)
    event("band searched" if search.called else "band empty by the ring gaps")
    # by bytes, so the sign of a zero force, which trace.csv prints, is pinned too
    assert fx.tobytes() == want[0].tobytes() and fh.tobytes() == want[1].tobytes()
    assert fields.potential(fleet, goals, w, cfg, radius) == want[2]


def test_band_keeps_a_neighbour_exactly_on_the_radius():
    """x_0 + r rounds below x_1, and the ring gap from 0 to 1 is an ulp above
    r, though the ring offset is r: a window searched, or a gap compared,
    without the rounding slack would drop the pair, which dist <= r admits."""
    x = np.array([469.0204033396479, 869.8951044502841])
    f = fleet_state(
        x, np.zeros(2), np.full(2, 45.0), np.zeros(2), np.zeros(2, dtype=int),
        np.ones(2, dtype=bool), np.arange(2), CFG,
    )
    r = float(abs(ring_offset(x[1] - x[0], CFG.course_length_m)))
    assert x[0] + r < x[1]
    band = _band(f, r)
    assert list(zip(band.a.tolist(), band.b.tolist())) == [(0, 1), (1, 0)]


@pytest.fixture
def searches(monkeypatch):
    """The calls ``neighbour_band`` makes to ``ring_pairs``: none when the
    ring gaps alone show the band empty."""
    calls, search = [], fields.ring_pairs

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(fields, "ring_pairs", counted)
    return calls


def _matches_the_dense_reference(fleet, radius, goals=NO_GOALS, w=FieldWeights()):
    fx, fh, total = _dense_force_and_total(fleet, goals, w, CFG, radius)
    got = fields.force(fleet, goals, w, CFG, radius)
    return (got[0].tobytes() == fx.tobytes() and got[1].tobytes() == fh.tobytes()
            and fields.potential(fleet, goals, w, CFG, radius) == total)


def _even_roster():
    """The relay builtins' start: five aircraft a layer, 400 m apart, level
    at their layer's altitude and speed, rows 5 l to 5 l + 4 in layer l."""
    fleet = engine._Engine(scenarios.get_scenario("fig6-airborne"))._fleet()
    assert set(fleet.ahead_x[fleet.order].tolist()) == {400.0}
    return fleet


def test_an_even_roster_at_its_spacing_keeps_both_ring_neighbours(searches):
    """At a 400 m radius no ring gap exceeds the searched reach: the band
    holds each resident's two ring neighbours, exactly on the radius."""
    fleet = _even_roster()
    band = fields.neighbour_band(fleet, CFG, 400.0)
    assert searches
    pairs = [(i, j) for i in range(15) for j in range(15)
             if i // 5 == j // 5 and (j - i) % 5 in (1, 4)]
    assert sorted(zip(band.a.tolist(), band.b.tolist())) == pairs and len(pairs) == 30
    assert set(band.dist.tolist()) == {400.0}
    assert _matches_the_dense_reference(fleet, 400.0)


def test_an_even_roster_inside_its_spacing_has_an_empty_band(searches):
    """At 399 m every ring gap exceeds the searched reach: the band is
    empty, and no window is searched."""
    fleet = _even_roster()
    band = fields.neighbour_band(fleet, CFG, 399.0)
    assert searches == [] and len(band.a) == len(band.dist) == 0
    assert _matches_the_dense_reference(fleet, 399.0)


def test_a_gap_equal_to_the_searched_reach_is_searched(searches):
    """The gaps show the band empty only beyond the searched reach, where
    ``ring_pairs``' window ends: at a reach of exactly 400 m the windows
    are searched, and find no pair within the radius."""
    fleet = _even_roster()
    radius = 399.99999760000003
    assert search_reach(radius, CFG.course_length_m) == 400.0
    band = fields.neighbour_band(fleet, CFG, radius)
    assert searches and len(band.a) == 0
    assert _matches_the_dense_reference(fleet, radius)


def test_a_lone_resident_has_no_gap(searches):
    """A lone resident's ahead_x is 0, its offset to itself, and it has no
    pair: with layer 1 spread 500 m apart, the band is empty without a
    search."""
    x = np.array([700.0, 0.0, 500.0, 1000.0, 1500.0])
    lay = np.array([0, 1, 1, 1, 1])
    fleet = fleet_state(
        x, lay * 100.0, np.array([30.0, 44.0, 46.0, 45.0, 47.0]), np.zeros(5), lay,
        np.ones(5, dtype=bool), np.arange(5), CFG,
    )
    assert (fleet.prec[0], fleet.ahead_x[0]) == (-1, 0.0)
    assert len(_band(fleet).a) == 0 and searches == []
    assert _matches_the_dense_reference(fleet, RADIUS)


@pytest.mark.parametrize("radius", [RADIUS, 40.0])
def test_a_release_only_widens_the_gaps_that_bound_the_band(radius, searches):
    """Row 0 backs off 50 m behind row 1, inside layer 0's 71.25 m
    separation, and is released.  Before the back-off pass row 0 precedes
    row 1, 1950 m ahead round the ring, and pulls it forward at
    0.376 m/s².  The fleet built after the pass has its own ring: row 1,
    now alone in layer 0, has no preceding aircraft and no pull.  Layer 1
    flies 500 m apart, so the band is empty by the gaps, at the default
    radius and at one under the separation alike."""
    specs = (AircraftSpec(0, 0, x=0.0), AircraftSpec(1, 0, x=50.0)) + tuple(
        AircraftSpec(2 + k, 1, x=500.0 * k) for k in range(4)
    )
    sc = Scenario(aircraft=specs, neighbor_radius_m=radius)
    eng = engine._Engine(sc)
    fleet = eng._fleet()
    assert len(_band(fleet, radius).a) == (2 if radius > 50.0 else 0)
    assert (fleet.prec[1], fleet.ahead_x[1]) == (0, 1950.0)
    pull = -fields.attract_gradient(fleet, sc.weights.attract)[0][1]
    assert pull == pytest.approx(0.376, abs=5e-4)
    eng.switch.mode[0], eng.switch.target[0], eng.switch.backoff[0] = MODE_BACKING_OFF, 1, 1
    assert eng._switch_logic(0.0, fleet).tolist() == [True] + [False] * 5
    after = eng._fleet()
    assert after.order.tolist() == [1, 2, 3, 4, 5]
    assert (after.prec[1], after.front[1]) == (-1, np.inf)
    assert fields.attract_value(after)[1] == 0.0
    gx, gh = fields.attract_gradient(after, sc.weights.attract)
    assert (gx[1], gh[1]) == (0.0, 0.0)
    searches.clear()
    assert _matches_the_dense_reference(after, radius, eng.window[3], sc.weights)
    assert searches == []


def test_layer_pairs_keep_row_order():
    """The field sums add a row's terms one by one, and their bits depend on
    the order of the terms: each row's neighbours stay in row order, not in
    ring order, and the rows follow the ring."""
    f = _fleet([(300.0, 100.0, 45.0, 0.0), (100.0, 100.0, 45.0, 0.0), (200.0, 100.0, 45.0, 0.0)])
    band = _band(f)
    assert band.a.tolist() == [1, 1, 2, 2, 0, 0]
    assert band.b.tolist() == [0, 2, 0, 1, 1, 2]


def test_stabilize_value_and_gradient():
    f = _fleet([(0.0, 100.0, 40.0, 2.0)])
    assert fields.stabilize_value(f, CFG)[0] == pytest.approx(25.0 + 4.0)
    gx, gh = fields.stabilize_gradient(f, CFG)
    assert (gx[0], gh[0]) == pytest.approx((-10.0, 4.0))


def test_layer_well_three_branches():
    f = fleet_state(
        np.array([0.0, 500.0, 1000.0]), np.array([40.0, 120.0, 260.0]), np.full(3, 45.0),
        np.zeros(3), np.array([0, 1, 2]), np.ones(3, dtype=bool), np.arange(3), CFG,
    )
    # each aircraft measures the offset from its own layer's altitude
    assert fields.layer_value(f) == pytest.approx([1600.0, 400.0, 3600.0])
    # gradient is vertical only
    gx, gh = fields.layer_gradient(f)
    assert gx[1] == 0.0 and gh[1] == pytest.approx(40.0)
    # at the foot of its band a layer-1 aircraft is pulled up to its own
    # layer, not down to layer 0
    edge = _fleet([(0.0, 50.0, 45.0, 0.0)])
    assert fields.layer_gradient(edge)[1][0] == pytest.approx(-100.0)


def test_attract_flat_inside_safe_gap():
    # 45 m/s needs 149.06 m: a 120 m gap is inside it, so no pull at all
    near = _fleet([(0.0, 0.0, 45.0, 0.0), (120.0, 0.0, 45.0, 0.0)])
    assert fields.attract_value(near)[0] == 0.0
    gx, gh = fields.attract_gradient(near)
    assert (gx[0], gh[0]) == (0.0, 0.0)
    far = _fleet([(0.0, 0.0, 45.0, 0.0), (300.0, 0.0, 45.0, 0.0)])
    assert fields.attract_value(far)[0] == pytest.approx(
        (300.0 - 149.0625) ** 2
    )


def test_attraction_pulls_forward_round_the_ring():
    """Past half the course the preceding aircraft is still ahead: the pull
    keeps pointing forward and matches the forward gap of the value."""
    f = _fleet([(100.0, 0.0, 45.0, 0.0), (1500.0, 0.0, 45.0, 0.0)])
    assert f.prec[0] == 1 and f.front[0] == pytest.approx(1400.0)
    gx, _ = fields.attract_gradient(f)
    assert gx[0] == pytest.approx(-2.0 * (1400.0 - 149.0625))
    # and the other one, 600 m ahead across the seam, is pulled forward too
    assert gx[1] == pytest.approx(-2.0 * (600.0 - 149.0625))


def test_repulse_blows_up_approaching_contact():
    near = _fleet([(0.0, 0.0, 45.0, 0.0), (10.0, 0.0, 45.0, 0.0)])
    nearer = _fleet([(0.0, 0.0, 45.0, 0.0), (5.0, 0.0, 45.0, 0.0)])
    assert fields.repulse_value(nearer, _band(nearer))[0] > (
        fields.repulse_value(near, _band(near))[0]
    )
    touching = _fleet([(0.0, 0.0, 45.0, 0.0), (0.0, 0.0, 45.0, 0.0)])
    with pytest.raises(CollisionError):
        _band(touching)
    with pytest.raises(CollisionError):
        fields.force(touching, NO_GOALS, FieldWeights(), CFG, RADIUS)


def test_gradients_match_central_differences():
    """Finite-difference check across every field, at kink-free states:
    aircraft 0 has a neighbour behind inside its separation and its
    preceding aircraft ahead, up to most of the course away."""
    rng = np.random.default_rng(99)
    eps = 1e-5
    checked = 0
    for _ in range(400):
        x = float(rng.uniform(10.0, 1990.0))
        h = float(rng.uniform(110.0, 140.0))
        vx, vy = float(rng.uniform(20.0, 60.0)), float(rng.uniform(-3.0, 3.0))
        sep = 0.0625 * (vx * vx + vy * vy) + 0.5 * math.hypot(vx, vy)
        behind = float(rng.uniform(5.0, sep - 5.0))
        lead = float(rng.uniform(50.0, 1900.0 - behind))
        rows = [
            (x, h, vx, vy),
            ((x + lead) % 2000.0, h + rng.uniform(-20, 20), 45.0, 0.0),
            ((x - behind) % 2000.0, h + rng.uniform(-2, 2), 45.0, 0.0),
        ]
        goals = Goals(np.array([0]), np.array([rng.uniform(0, 2000)]))
        rng.uniform(0, 200)  # the goal altitude, unused: drawn so the sampled states stay the same
        base = _gradients(_fleet(rows), goals)

        def val(kind, dx=0.0, dh=0.0, dvx=0.0, dvy=0.0):
            moved = [(x + dx, h + dh, vx + dvx, vy + dvy)] + rows[1:]
            return _values(_fleet(moved), goals)[kind][0]

        for kind in KINDS:
            if kind == "stabilize":
                num = (
                    (val(kind, dvx=eps) - val(kind, dvx=-eps)) / (2 * eps),
                    (val(kind, dvy=eps) - val(kind, dvy=-eps)) / (2 * eps),
                )
            else:
                num = (
                    (val(kind, dx=eps) - val(kind, dx=-eps)) / (2 * eps),
                    (val(kind, dh=eps) - val(kind, dh=-eps)) / (2 * eps),
                )
            grad = (base[kind][0][0], base[kind][1][0])
            scale = max(1.0, abs(num[0]), abs(num[1]))
            assert grad[0] == pytest.approx(num[0], abs=2e-4 * scale), kind
            assert grad[1] == pytest.approx(num[1], abs=2e-4 * scale), kind
            checked += 1
    print(f"gradient pairs checked: {checked}")
    assert checked > 1500


def test_composite_force_sums_weighted_gradients():
    f = _fleet([(0.0, 100.0, 40.0, 1.0), (60.0, 102.0, 47.0, 0.0), (400.0, 97.0, 45.0, -1.0)])
    goals = Goals(np.array([2]), np.array([900.0]))
    w = FieldWeights()
    fx, fh = fields.force(f, goals, w, CFG, RADIUS)
    grads = _gradients(f, goals)
    cx, ch = fields.consensus(f, _band(f), w.consensus_gain)
    manual_x, manual_h = -cx, -ch
    for kind in KINDS:
        manual_x = manual_x - getattr(w, kind) * grads[kind][0]
        manual_h = manual_h - getattr(w, kind) * grads[kind][1]
    assert fx == pytest.approx(manual_x, rel=1e-12)
    assert fh == pytest.approx(manual_h, rel=1e-12)
    # the total is the same fields' values, weighted
    total = fields.potential(f, goals, w, CFG, RADIUS)
    values = _values(f, goals)
    assert total == pytest.approx(sum(getattr(w, k) * values[k].sum() for k in KINDS), rel=1e-12)


def test_mid_climb_aircraft_adds_nothing_to_the_total():
    """No field steers a switching aircraft, so the total leaves it out:
    the same two rows with the climber resident count its values."""
    rows = [(0.0, 100.0, 40.0, 0.0), (500.0, 150.0, 52.0, 6.0)]
    w = FieldWeights()
    x, h, vx, vy = (np.array(c) for c in zip(*rows))

    def total(resident):
        f = fleet_state(x, h, vx, vy, np.ones(2, dtype=int), np.array(resident), np.arange(2), CFG)
        return fields.potential(f, NO_GOALS, w, CFG, RADIUS)

    alone = _fleet(rows[:1])
    assert total([True, False]) == fields.potential(alone, NO_GOALS, w, CFG, RADIUS)
    assert total([True, True]) > total([True, False]) + 100.0


def test_consensus_pulls_toward_neighbor_velocity():
    # 250 m apart: outside the 149 m separation (no repulsion), inside the
    # 300 m interaction radius
    f = _fleet([(0.0, 100.0, 45.0, 0.0), (250.0, 100.0, 50.0, 0.0)])
    w = FieldWeights(stabilize=0.0, attract=0.0, consensus_gain=0.5)
    fx, _ = fields.force(f, NO_GOALS, w, CFG, RADIUS)
    assert fx == pytest.approx([0.5 * 5.0, -0.5 * 5.0], rel=1e-12)
    # beyond the radius there is no consensus
    apart = _fleet([(0.0, 100.0, 45.0, 0.0), (700.0, 100.0, 50.0, 0.0)])
    fx, _ = fields.force(apart, NO_GOALS, w, CFG, RADIUS)
    assert fx == pytest.approx([0.0, 0.0], abs=1e-12)


def test_acceleration_is_norm_clipped():
    """1 m apart, repulsion far exceeds the airframe budget: the engine
    clips its norm to 5 m/s^2 and keeps its direction."""
    sc = Scenario(
        aircraft=(AircraftSpec(0, 1, x=0.0), AircraftSpec(1, 1, x=1.0)),
        switching_enabled=False,
        duration_s=0.2,
    )
    tr = run(sc)
    ax = (tr.vx[1] - tr.vx[0]) / sc.dt
    ah = (tr.vy[1] - tr.vy[0]) / sc.dt
    assert np.all(np.hypot(ax, ah) <= 5.0 + 1e-9)
    assert np.hypot(ax, ah) == pytest.approx([5.0, 5.0], rel=1e-9)
    f = _fleet([(0.0, 100.0, 45.0, 0.0), (1.0, 100.0, 45.0, 0.0)])
    fx, _ = fields.force(f, NO_GOALS, sc.weights, CFG, RADIUS)
    assert np.all(np.sign(ax) == np.sign(fx))
    assert ax[0] < 0.0 < ax[1]


def test_weights_must_be_nonnegative():
    with pytest.raises(ValueError):
        FieldWeights(repulse=-1.0)
