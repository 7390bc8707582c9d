"""Field values and gradients of the fleet kernel, on small fleets."""

import math

import numpy as np
import pytest

from uamsim import fields
from uamsim.airspace import AirspaceConfig, fleet_state, ring_neighbours
from uamsim.engine import AircraftSpec, Scenario, run
from uamsim.fields import CollisionError, FieldWeights, Goals

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


def _no_goals(n):
    return Goals(np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool))


def _values(fleet, goals):
    ring = ring_neighbours(fleet, CFG)
    pairs = fields.layer_pairs(fleet, CFG, RADIUS)
    return {
        "attract": fields.attract_value(fleet, ring),
        "stabilize": fields.stabilize_value(fleet, CFG),
        "repulse": fields.repulse_value(fleet, pairs),
        "layer": fields.layer_value(fleet, CFG),
        "goal": fields.goal_value(fleet, goals, CFG),
    }


def _gradients(fleet, goals):
    ring = ring_neighbours(fleet, CFG)
    pairs = fields.layer_pairs(fleet, CFG, RADIUS)
    return {
        "attract": fields.attract_gradient(fleet, ring),
        "stabilize": fields.stabilize_gradient(fleet, CFG),
        "repulse": fields.repulse_gradient(fleet, pairs),
        "layer": fields.layer_gradient(fleet, CFG),
        "goal": fields.goal_gradient(fleet, goals, CFG),
    }


def test_layer_pairs_keep_row_order():
    """The field sums run along a matrix row, and their bits depend on the
    order of its columns: the members stay in row order, not ring order."""
    f = _fleet([(300.0, 100.0, 45.0, 0.0), (100.0, 100.0, 45.0, 0.0), (200.0, 100.0, 45.0, 0.0)])
    assert [p.members.tolist() for p in fields.layer_pairs(f, CFG, RADIUS)] == [[0, 1, 2]]


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
    assert fields.layer_value(f, CFG) == pytest.approx([1600.0, 400.0, 3600.0])
    # gradient is vertical only
    gx, gh = fields.layer_gradient(f, CFG)
    assert gx[1] == 0.0 and gh[1] == pytest.approx(40.0)
    # at the foot of its band a layer-1 aircraft is pulled up to its own
    # layer, not down to layer 0
    edge = _fleet([(0.0, 50.0, 45.0, 0.0)])
    assert fields.layer_gradient(edge, CFG)[1][0] == pytest.approx(-100.0)


def test_attract_flat_inside_safe_gap():
    # 45 m/s needs 149.06 m: a 120 m gap is inside it, so no pull at all
    near = _fleet([(0.0, 0.0, 45.0, 0.0), (120.0, 0.0, 45.0, 0.0)])
    ring = ring_neighbours(near, CFG)
    assert fields.attract_value(near, ring)[0] == 0.0
    gx, gh = fields.attract_gradient(near, ring)
    assert (gx[0], gh[0]) == (0.0, 0.0)
    far = _fleet([(0.0, 0.0, 45.0, 0.0), (300.0, 0.0, 45.0, 0.0)])
    assert fields.attract_value(far, ring_neighbours(far, CFG))[0] == pytest.approx(
        (300.0 - 149.0625) ** 2
    )


def test_attraction_pulls_forward_round_the_ring():
    """Past half the course the preceding aircraft is still ahead: the pull
    keeps pointing forward and matches the forward gap of the value."""
    f = _fleet([(100.0, 0.0, 45.0, 0.0), (1500.0, 0.0, 45.0, 0.0)])
    ring = ring_neighbours(f, CFG)
    assert ring.prec[0] == 1 and ring.front[0] == pytest.approx(1400.0)
    gx, _ = fields.attract_gradient(f, ring)
    assert gx[0] == pytest.approx(-2.0 * (1400.0 - 149.0625))
    # and the other one, 600 m ahead across the seam, is pulled forward too
    assert gx[1] == pytest.approx(-2.0 * (600.0 - 149.0625))


def test_repulse_blows_up_approaching_contact():
    near = _fleet([(0.0, 0.0, 45.0, 0.0), (10.0, 0.0, 45.0, 0.0)])
    nearer = _fleet([(0.0, 0.0, 45.0, 0.0), (5.0, 0.0, 45.0, 0.0)])
    assert fields.repulse_value(nearer, fields.layer_pairs(nearer, CFG, RADIUS))[0] > (
        fields.repulse_value(near, fields.layer_pairs(near, CFG, RADIUS))[0]
    )
    touching = _fleet([(0.0, 0.0, 45.0, 0.0), (0.0, 0.0, 45.0, 0.0)])
    with pytest.raises(CollisionError):
        fields.layer_pairs(touching, CFG, RADIUS)
    with pytest.raises(CollisionError):
        fields.force(
            touching, ring_neighbours(touching, CFG), _no_goals(2), FieldWeights(), CFG, RADIUS
        )


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
        goals = Goals(
            np.array([rng.uniform(0, 2000), 0.0, 0.0]),
            np.array([rng.uniform(0, 200), 0.0, 0.0]),
            np.array([True, False, False]),
        )
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
    goals = Goals(np.array([0.0, 0.0, 900.0]), np.array([0.0, 0.0, 200.0]),
                  np.array([False, False, True]))
    w = FieldWeights()
    fx, fh = fields.force(f, ring_neighbours(f, CFG), goals, w, CFG, RADIUS)
    grads = _gradients(f, goals)
    cx, ch = fields.consensus(f, fields.layer_pairs(f, CFG, RADIUS), w.consensus_gain)
    manual_x, manual_h = -cx, -ch
    for kind in KINDS:
        manual_x = manual_x - getattr(w, kind) * grads[kind][0]
        manual_h = manual_h - getattr(w, kind) * grads[kind][1]
    assert fx == pytest.approx(manual_x, rel=1e-12)
    assert fh == pytest.approx(manual_h, rel=1e-12)
    # the total is the same fields' values, weighted
    total = fields.potential(f, ring_neighbours(f, CFG), goals, w, CFG, RADIUS)
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
        return fields.potential(f, ring_neighbours(f, CFG), _no_goals(2), w, CFG, RADIUS)

    alone = _fleet(rows[:1])
    assert total([True, False]) == fields.potential(
        alone, ring_neighbours(alone, CFG), _no_goals(1), w, CFG, RADIUS
    )
    assert total([True, True]) > total([True, False]) + 100.0


def test_consensus_pulls_toward_neighbor_velocity():
    # 250 m apart: outside the 149 m separation (no repulsion), inside the
    # 300 m interaction radius
    f = _fleet([(0.0, 100.0, 45.0, 0.0), (250.0, 100.0, 50.0, 0.0)])
    w = FieldWeights(stabilize=0.0, attract=0.0, consensus_gain=0.5)
    fx, _ = fields.force(f, ring_neighbours(f, CFG), _no_goals(2), w, CFG, RADIUS)
    assert fx == pytest.approx([0.5 * 5.0, -0.5 * 5.0], rel=1e-12)
    # beyond the radius there is no consensus
    apart = _fleet([(0.0, 100.0, 45.0, 0.0), (700.0, 100.0, 50.0, 0.0)])
    fx, _ = fields.force(apart, ring_neighbours(apart, CFG), _no_goals(2), w, CFG, RADIUS)
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
    fx, _ = fields.force(f, ring_neighbours(f, CFG), _no_goals(2), sc.weights, CFG, RADIUS)
    assert np.all(np.sign(ax) == np.sign(fx))
    assert ax[0] < 0.0 < ax[1]


def test_weights_must_be_nonnegative():
    with pytest.raises(ValueError):
        FieldWeights(repulse=-1.0)
