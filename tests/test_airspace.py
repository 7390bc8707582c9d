"""Separation rules of the fleet kernel, on small fleets."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamsim.airspace import (
    AirspaceConfig,
    cross_layer_conflicts,
    fleet_state,
    horizontal_safe_separation,
    ring_neighbours,
    ring_offset,
)
from uamsim.engine import AircraftSpec, Scenario, validate_scenario


CFG = AirspaceConfig()


def _fleet(rows, cfg=CFG, resident=None):
    """rows: (id, x, h, vx, vy, layer) per aircraft."""
    ids, x, h, vx, vy, layer = (np.array(c) for c in zip(*rows))
    res = np.ones(len(rows), dtype=bool) if resident is None else np.array(resident)
    return fleet_state(
        x.astype(float), h.astype(float), vx.astype(float), vy.astype(float),
        layer.astype(int), res, ids.astype(int), cfg,
    )


def _ids(fleet, codes):
    """Row-pair codes as a set of id pairs, smaller id first."""
    n = len(fleet.x)
    assert np.all(np.diff(codes) > 0), "codes must be sorted and distinct"
    return {tuple(sorted(fleet.ids[[c // n, c % n]].tolist())) for c in codes}


def _conflicts(fleet, cfg=CFG):
    return _ids(fleet, ring_neighbours(fleet, cfg).conflicts) | _ids(
        fleet, cross_layer_conflicts(fleet, cfg)
    )


def test_horizontal_separation_worked_values():
    # (B - b) / (2 B b) * v^2 + v * (t1 + t2) with B=8, b=4, delay 0.5
    sep = horizontal_safe_separation(np.array([45.0, 60.0, 30.0, 0.0]), CFG)
    assert sep == pytest.approx([149.0625, 255.0, 71.25, 0.0], abs=1e-12)
    assert horizontal_safe_separation(45.0, CFG) == pytest.approx(149.0625, abs=1e-12)


def test_horizontal_separation_quadratic_coefficient():
    # strip the reaction term: what remains must scale exactly with v^2
    v = np.array([10.0, 45.0, 60.0])
    quad = horizontal_safe_separation(v, CFG) - v * 0.5
    assert quad == pytest.approx((8.0 - 4.0) / (2 * 8.0 * 4.0) * v * v, rel=1e-12)
    # the braking gap closing shrinks the requirement toward the reaction term
    tight = AirspaceConfig(max_brake_mps2=6.0, comfort_brake_mps2=5.9999)
    assert horizontal_safe_separation(45.0, tight) == pytest.approx(
        45.0 * 0.5, rel=1e-3
    )


def test_horizontal_separation_monotone_in_speed():
    rng = np.random.default_rng(11)
    v = rng.uniform(0.0, 65.0, 500)
    dv = rng.uniform(1e-3, 5.0, 500)
    lo = horizontal_safe_separation(v, CFG)
    hi = horizontal_safe_separation(v + dv, CFG)
    assert np.all(hi > lo)
    print(f"largest separation seen: {lo.max():.2f} m")


def test_horizontal_separation_rejects_bad_speed():
    with pytest.raises(ValueError):
        horizontal_safe_separation(np.array([45.0, -1.0]), CFG)
    with pytest.raises(ValueError):
        horizontal_safe_separation(np.array([float("nan")]), CFG)
    with pytest.raises(ValueError):
        fleet_state(
            np.zeros(1), np.zeros(1), np.array([np.inf]), np.zeros(1),
            np.zeros(1, dtype=int), np.ones(1, dtype=bool), np.zeros(1, dtype=int), CFG,
        )


def test_ring_offset_takes_the_short_way():
    dx = np.array([0.0, 999.0, 1000.0, 1001.0, -1001.0, 1999.0, -1999.0])
    assert ring_offset(dx, 2000.0) == pytest.approx([0, 999, -1000, -999, 999, -1, 1])


def test_vertical_separation_head_on_and_oblique():
    # Straight toward the other craft: the full speed counts.
    cfg = AirspaceConfig(vertical_separation_coeff=1.0)

    def hit(other_x, other_h, cfg):
        fleet = _fleet([(0, 0.0, 0.0, 60.0, 0.0, 0), (1, other_x, other_h, 0.0, 0.0, 1)], cfg)
        return _ids(fleet, cross_layer_conflicts(fleet, cfg)) == {(0, 1)}

    assert hit(59.9, 0.0, cfg) and not hit(60.1, 0.0, cfg)
    # 45 degrees off: cos gamma = 1/sqrt(2), i.e. 42.43 m at 60 m/s.
    edge = 60.0 / math.sqrt(2.0)
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert hit(c * (edge - 0.1), s * (edge - 0.1), cfg)
    assert not hit(c * (edge + 0.1), s * (edge + 0.1), cfg)
    # The default coefficient halves it.
    assert hit(c * (edge / 2 - 0.1), s * (edge / 2 - 0.1), CFG)
    assert not hit(c * (edge / 2 + 0.1), s * (edge / 2 + 0.1), CFG)


def test_vertical_separation_receding_is_zero():
    receding = _fleet([(0, 0.0, 0.0, -30.0, 0.0, 0), (1, 1.0, 0.5, 0.0, 0.0, 1)])
    assert _ids(receding, cross_layer_conflicts(receding, CFG)) == set()
    # the same geometry closing is a conflict; three spacings apart never is
    closing = _fleet([(0, 0.0, 0.0, 30.0, 0.0, 0), (1, 1.0, 0.5, 0.0, 0.0, 1)])
    assert _ids(closing, cross_layer_conflicts(closing, CFG)) == {(0, 1)}
    far = _fleet([(0, 0.0, 0.0, 0.0, 65.0, 0), (1, 0.0, 201.0, 0.0, 0.0, 2)])
    wide = replace(CFG, vertical_separation_coeff=10.0)
    assert _ids(far, cross_layer_conflicts(far, wide)) == set()


def test_conflict_is_symmetric():
    """Swapping the two rows of a same-layer pair keeps the verdict."""
    rng = np.random.default_rng(23)
    hits = 0
    for _ in range(400):
        a = (0, rng.uniform(0, 500), rng.uniform(-10, 10), rng.uniform(20, 60), 0.0, 0)
        b = (1, rng.uniform(0, 500), rng.uniform(-10, 10), rng.uniform(20, 60), 0.0, 0)
        r = _conflicts(_fleet([a, b]))
        assert r == _conflicts(_fleet([b, a]))
        hits += int(bool(r))
    print(f"same-layer conflicts hit in {hits}/400 random draws")
    assert hits > 0


# Positions on a 1/8 m grid and speeds on a 1/4 m/s grid keep every ring
# offset, and every offset after an exact shift, free of rounding.
_row = st.tuples(
    st.integers(0, 8 * 2000 - 1),
    st.integers(-8 * 60, 8 * 260),
    st.integers(-4 * 40, 4 * 60),
    st.integers(-4 * 8, 4 * 8),
    st.integers(0, 2),
    st.booleans(),
)


def _grid_fleet(rows, ids, shift=0):
    x = np.array([r[0] + shift for r in rows], dtype=float) / 8.0 % 2000.0
    h = np.array([r[1] for r in rows], dtype=float) / 8.0
    vx = np.array([r[2] for r in rows], dtype=float) / 4.0
    vy = np.array([r[3] for r in rows], dtype=float) / 4.0
    layer = np.array([r[4] for r in rows])
    resident = np.array([r[5] for r in rows])
    return fleet_state(x, h, vx, vy, layer, resident, np.array(ids), CFG)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=6), data=st.data())
def test_conflict_pairs_survive_row_permutation(rows, data):
    ids = list(range(10, 10 + len(rows)))
    perm = data.draw(st.permutations(range(len(rows))))
    base = _conflicts(_grid_fleet(rows, ids))
    moved = _conflicts(_grid_fleet([rows[i] for i in perm], [ids[i] for i in perm]))
    assert moved == base


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=6), shift=st.integers(-8 * 4000, 8 * 4000))
def test_conflict_translation_invariant(rows, shift):
    """A ring translation by an exactly representable shift keeps the pairs."""
    ids = list(range(len(rows)))
    assert _conflicts(_grid_fleet(rows, ids, shift)) == _conflicts(_grid_fleet(rows, ids))


def test_same_layer_conflict_uses_faster_speed():
    # 140 m apart: inside the 45 m/s bubble (149.06) but outside 30 m/s (71.25)
    slow = (0, 0.0, 0.0, 30.0, 0.0, 0)
    fast = (1, 140.0, 0.0, 45.0, 0.0, 0)
    assert _conflicts(_fleet([slow, fast])) == {(0, 1)}
    assert _conflicts(_fleet([fast, slow])) == {(0, 1)}
    slow2 = (1, 140.0, 0.0, 30.0, 0.0, 0)
    assert _conflicts(_fleet([slow, slow2])) == set()


def test_pair_distance():
    ring = ring_neighbours(_fleet([(0, 0.0, 0.0, 10.0, 0.0, 0), (1, 3.0, 4.0, 10.0, 0.0, 0)]), CFG)
    assert ring.front[0] == pytest.approx(5.0, abs=1e-12)
    assert ring.rear[1] == pytest.approx(5.0, abs=1e-12)
    # the other way round the ring
    assert ring.front[1] == pytest.approx(math.hypot(1997.0, 4.0), abs=1e-9)
    assert list(ring.prec) == [1, 0]
    assert (ring.ahead_x[1], ring.ahead_h[1]) == (1997.0, -4.0)


def test_ring_skips_the_alone_and_the_switching():
    rows = [(0, 0.0, 0.0, 30.0, 0.0, 0), (1, 10.0, 95.0, 30.0, 5.0, 0), (2, 10.0, 100.0, 45.0, 0.0, 1)]
    fleet = _fleet(rows, resident=[True, False, True])
    ring = ring_neighbours(fleet, CFG)
    assert np.all(np.isinf(ring.front)) and np.all(np.isinf(ring.rear))
    assert list(ring.prec) == [-1, -1, -1]
    assert _ids(fleet, ring.conflicts) == set()
    # the switching aircraft takes no part in the cross-layer rule either
    assert _ids(fleet, cross_layer_conflicts(fleet, CFG)) == set()
    assert _conflicts(_fleet(rows)) == {(1, 2)}


def test_layer_altitude_and_validation():
    assert CFG.layer_altitude(0) == 0.0
    assert CFG.layer_altitude(2) == 200.0

    def problems(**spec):
        return validate_scenario(Scenario(aircraft=(AircraftSpec(aircraft_id=0, **spec),)))

    assert problems(layer=1, x=10.0, altitude_offset=5.0) == []
    assert problems(layer=5, x=10.0)
    # 45 + 25 m/s exceeds the 65 m/s limit
    assert problems(layer=1, x=10.0, speed_offset=25.0)
    # starts more than half a layer away from its band
    assert problems(layer=1, x=10.0, altitude_offset=60.0)


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        AirspaceConfig(layer_spacing_m=-5.0)
    with pytest.raises(ValueError):
        AirspaceConfig(max_brake_mps2=2.0, comfort_brake_mps2=4.0)
