"""Separation rules of the fleet kernel, on small fleets."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from uamsim import airspace
from uamsim.airspace import (
    AirspaceConfig,
    cross_layer_conflicts,
    fleet_state,
    horizontal_safe_separation,
    pair_codes,
    ring_laps,
    ring_offset,
    ring_pairs,
)
from uamsim.engine import AircraftSpec, Scenario, validate_scenario
from uamsim.fields import Goals, attract_gradient, goal_gradient, layer_gradient


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


def _conflicts(fleet):
    return _ids(fleet, fleet.conflicts)


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


def test_ring_offset_stays_in_range_at_the_antipode():
    """Half a course and one ulp ahead: the shifted offset is -1.1e-13,
    whose remainder rounds up to the course itself.  It wraps to 0, so the
    offset is -course/2, inside [-course/2, course/2), for arrays and
    scalars alike."""
    x_a, x_b = 1000.0000000000001, 0.0
    assert x_b - x_a + 1000.0 == -1.1368683772161603e-13
    assert ring_offset(x_b - x_a, 2000.0) == -1000.0
    assert ring_offset(np.array([x_b - x_a, x_a - x_b]), 2000.0).tolist() == [-1000.0, -1000.0]


@settings(max_examples=300, deadline=None)
@given(
    dx=st.lists(
        st.sampled_from([0.0, -0.0, 1000.0, -1000.0, 3000.0, -3000.0, 1e-300, -1e-300])
        | st.floats(-1e7, 1e7),
        min_size=1, max_size=20,
    ),
    course=st.sampled_from([2000.0, 0.3]) | st.floats(1e-3, 1e6),
)
def test_ring_offset_matches_the_plain_remainder(dx, course):
    """The remainder runs only off [0, course); every offset keeps the bits
    of (dx + course/2) % course - course/2, a remainder equal to the course
    taken as 0, and a scalar stays a scalar."""
    dx = np.array(dx)
    rem = (dx + 0.5 * course) % course
    want = np.where(rem == course, 0.0, rem) - 0.5 * course
    assert ring_offset(dx, course).tobytes() == want.tobytes()
    scalar = ring_offset(float(dx[0]), course)
    assert isinstance(scalar, np.float64) and scalar.tobytes() == want[0].tobytes()


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


def test_a_vertical_approach_hits_up_to_the_band_bound():
    """Straight down onto a hovering craft: dist is the height gap and
    cos gamma is 1, so the pair is a hit just inside coeff * (faster speed)
    and is skipped from that gap on."""
    cfg = AirspaceConfig(vertical_separation_coeff=1.0)

    def hits(gap):
        fleet = _fleet([(0, 5.0, 0.0, 0.0, 0.0, 0), (1, 5.0, gap, 0.0, -60.0, 1)], cfg)
        return _ids(fleet, cross_layer_conflicts(fleet, cfg))

    assert hits(59.999) == {(0, 1)}
    assert hits(60.0) == set()


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


def _cross_layer_reference(fleet, cfg):
    """The cross-layer rule one resident pair at a time, lower layer first."""
    codes = []
    n = len(fleet.x)
    for i in range(n):
        for j in range(n):
            if not (fleet.resident[i] and fleet.resident[j] and fleet.layer[i] < fleet.layer[j]):
                continue
            sx = ring_offset(fleet.x[i] - fleet.x[j], cfg.course_length_m)
            sh = fleet.h[i] - fleet.h[j]
            dist = np.hypot(sx, sh)
            rvx, rvy = fleet.vx[i] - fleet.vx[j], fleet.vy[i] - fleet.vy[j]
            rnorm = np.hypot(rvx, rvy)
            cosg = 0.0
            if rnorm != 0.0 and dist != 0.0:
                # dist * rnorm can underflow to 0: NaN is no hit, inf clips to 1
                with np.errstate(divide="ignore", invalid="ignore"):
                    cosg = min(max(-(sx * rvx + sh * rvy) / (dist * rnorm), 0.0), 1.0)
            vsep = cfg.vertical_separation_coeff * max(fleet.speed[i], fleet.speed[j]) * cosg
            if 0.0 < dist < vsep and abs(sh) <= 2.0 * cfg.layer_spacing_m + 1e-9:
                codes.append(min(i, j) * n + max(i, j))
    return sorted(codes)


def test_cross_layer_reference_takes_an_underflowing_product():
    """Residents of layers 0 and 1 one ulp apart in altitude, closing at a
    subnormal climb rate: dist * rnorm underflows to 0 and cos(gamma) is
    0 / 0, which the rule and the reference both read as no hit.  A subnormal
    x difference cannot do this: ``ring_offset`` rounds it away."""
    fleet = fleet_state(
        np.array([0.0, 0.0]), np.array([50.0, np.nextafter(50.0, 100.0)]),
        np.array([30.0, 30.0]), np.array([0.0, -1e-320]),
        np.array([0, 1]), np.array([True, True]), np.arange(2), CFG,
    )
    assert cross_layer_conflicts(fleet, CFG).tolist() == _cross_layer_reference(fleet, CFG) == []


def _layered_fleet(data, max_offset):
    """Up to 8 aircraft within 100 m of the ring's seam, x often coincident,
    altitudes within ``max_offset`` of their layer, some mid-switch, ids in a
    drawn order; layers are often empty or hold a lone resident.  Climb
    rates up to 60 m/s give the near-vertical approaches that reach the
    band bound."""
    count = data.draw(st.integers(1, 8))
    xs = st.one_of(
        st.sampled_from([0.0, 0.5, 1999.5]), st.floats(0.0, 100.0), st.floats(1900.0, 1999.999)
    )
    rows = [
        data.draw(
            st.tuples(
                xs,
                st.floats(-max_offset, max_offset),
                st.floats(-40.0, 60.0),
                st.floats(-60.0, 60.0),
                st.integers(0, 2),
                st.booleans(),
            )
        )
        for _ in range(count)
    ]
    x, offset, vx, vy, layer, resident = (np.array(c) for c in zip(*rows))
    h = layer * CFG.layer_spacing_m + offset
    # ids out of row order, so an x tie is broken by id, not by row
    ids = np.array(data.draw(st.permutations(range(count))))
    return fleet_state(x, h, vx, vy, layer, resident, ids, CFG)


def _boundary_fleet(data, cfg):
    """Rows 0 and 1 close head on from layers L and L + 1 at the fleet's top
    speed, and up to 4 more rows fly no faster.  Each row is offset toward
    a neighbouring layer (layer 1 toward either) by (spacing - coeff *
    fastest) / 2, moved by -4..4 ulps: where the cross-layer bound turns
    from skipping to evaluating, and where rows 0 and 1 come within their
    separation.  Climb rates are whole quarters of a m/s: a rate within a
    few ulps of zero makes cos(gamma) 0 / 0 in the reference."""
    quarters = data.draw(st.integers(0, 240))
    top = quarters / 4.0
    low = data.draw(st.integers(0, 1))
    others = st.tuples(
        st.sampled_from([0.0, 0.5]),
        st.integers(-quarters, quarters).map(lambda q: q / 4.0),
        st.integers(0, 2),
        st.booleans(),
        st.sampled_from([-1.0, 1.0]),
    )
    rows = [(0.0, top, low, True, 1.0), (0.0, -top, low + 1, True, -1.0)]
    rows += data.draw(st.lists(others, max_size=4))
    x, vy, layer, resident, sign = (np.array(c) for c in zip(*rows))
    vx = np.full(len(rows), data.draw(st.sampled_from([0.0, 30.0])))
    fastest = np.hypot(vx, vy)[resident].max()
    offset = (cfg.layer_spacing_m - cfg.vertical_separation_coeff * fastest) / 2.0
    offset += data.draw(st.integers(-4, 4)) * np.spacing(offset)
    toward = np.where(layer == 1, sign, 1 - layer)  # up from layer 0, down from 2
    h = layer * cfg.layer_spacing_m + toward * offset
    return fleet_state(x, h, vx, vy, layer, resident, np.arange(len(rows)), cfg)


@pytest.mark.parametrize(
    "max_offset, coeffs",
    [
        # bands close enough for the pair matrices to be evaluated
        pytest.param(50.0, st.floats(0.0, 10.0), id="evaluated"),
        # residents as the engine keeps them: every layer pair is out of reach
        pytest.param(2.2, st.just(CFG.vertical_separation_coeff), id="culled"),
        # the largest offset within 4 ulps of where the bound turns
        pytest.param(None, st.floats(0.0, 1.0), id="boundary"),
    ],
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cross_layer_rule_matches_the_per_pair_loop(max_offset, coeffs, data):
    """Skipping the rule when no resident is near enough to another layer
    drops no pair that the full comparison would find."""
    cfg = replace(CFG, vertical_separation_coeff=data.draw(coeffs))
    if max_offset is None:
        fleet = _boundary_fleet(data, cfg)
    else:
        fleet = _layered_fleet(data, max_offset)
    with mock.patch.object(airspace, "ring_laps", wraps=airspace.ring_laps) as laps:
        got = cross_layer_conflicts(fleet, cfg)
    event("rule evaluated" if laps.called else "rule skipped by the bound")
    want = _cross_layer_reference(fleet, cfg)
    if want:
        event("a pair conflicts")
    assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_violated_resident_is_in_a_ring_conflict(data):
    """A resident whose front or rear gap is under its own separation is a
    row of a ``fleet.conflicts`` pair, whose test takes the larger
    separation of its two rows; ``_switch_logic`` returns early on a tick
    with no conflict and no backing-off row on that ground."""
    fleet = _layered_fleet(data, 50.0)
    violated = (fleet.front < fleet.d_safe) | (fleet.rear < fleet.d_safe)
    event("a resident violated" if violated.any() else "no resident violated")
    assert set(violated.nonzero()[0].tolist()) <= set(
        np.concatenate(np.divmod(fleet.conflicts, len(fleet.x))).tolist()
    )


def _ring_reference(fleet, cfg):
    """The ring one layer at a time: sort the layer's residents by (x, id)
    and pair each with the next, the last with the first."""
    n = len(fleet.x)
    front, rear = np.full(n, np.inf), np.full(n, np.inf)
    prec = np.full(n, -1, dtype=int)
    ahead_x, ahead_h = np.zeros(n), np.zeros(n)
    close = np.zeros(n, dtype=bool)
    for lay in (0, 1, 2):
        members = np.flatnonzero(fleet.resident & (fleet.layer == lay))
        if len(members) < 2:
            continue
        order = members[np.lexsort((fleet.ids[members], fleet.x[members]))]
        nxt = np.roll(order, -1)
        dx = (fleet.x[nxt] - fleet.x[order]) % cfg.course_length_m
        dh = fleet.h[nxt] - fleet.h[order]
        gap = np.hypot(dx, dh)
        front[order] = gap
        rear[nxt] = gap
        prec[order] = nxt
        ahead_x[order] = dx
        ahead_h[order] = dh
        close[order] = gap < np.maximum(fleet.d_safe[order], fleet.d_safe[nxt])
    rows = np.flatnonzero(close)
    return front, rear, prec, ahead_x, ahead_h, pair_codes(rows, prec[rows], n)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ring_matches_the_per_layer_loop(data):
    """The ring ``fleet_state`` reads off the fleet's one resident order
    matches the per-layer sort bit for bit, and each layer's segment holds
    exactly that layer's residents.  The fleet's conflicts are the ring's
    joined with the per-pair cross-layer rule's, which the 50 m offsets
    let hit."""
    fleet = _layered_fleet(data, 50.0)
    for lay in (0, 1, 2):
        members = np.flatnonzero(fleet.resident & (fleet.layer == lay))
        assert np.sort(fleet.segment(lay)).tolist() == members.tolist()
    ring = fleet.front, fleet.rear, fleet.ahead_x, fleet.ahead_h, fleet.conflicts
    front, rear, _, ahead_x, ahead_h, codes = _ring_reference(fleet, CFG)
    cross = np.array(_cross_layer_reference(fleet, CFG), dtype=int)
    if len(cross):
        event("a cross-layer pair conflicts")
    for got, want in zip(ring, (front, rear, ahead_x, ahead_h, np.union1d(codes, cross))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _layer_offset_reference(fleet, cfg):
    """Each row's altitude above its layer's, as the fields derived it
    before the fleet carried it."""
    return fleet.h - cfg.layer_altitude(fleet.layer)


def _attract_gradient_reference(fleet, weight):
    """The attraction on the rows with a preceding aircraft in the
    reference ring."""
    gx, gh = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    i = (_ring_reference(fleet, CFG)[2] >= 0).nonzero()[0]
    d = fleet.front[i]
    pull = np.fmax(d - fleet.d_safe[i], 0.0)
    pull *= 2.0
    pull /= np.fmax(d, 1e-12)
    pull *= -weight
    gx[i] = pull * fleet.ahead_x[i]
    gh[i] = pull * fleet.ahead_h[i]
    return gx, gh


def _goal_gradient_reference(fleet, goals, cfg, weight):
    gx, gh = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    g = goals.rows
    gx[g] = weight * (-2.0 * ring_offset(goals.x - fleet.x[g], cfg.course_length_m))
    gh[g] = weight * 2.0 * _layer_offset_reference(fleet, cfg)[g]
    return gx, gh


def _cross_layer_skipped_reference(fleet, cfg):
    """Whether the cross-layer rule's bound skips it, each resident's offset
    derived from its layer altitude."""
    rows = fleet.order
    offset = np.maximum.reduce(
        np.abs(fleet.h[rows] - cfg.layer_spacing_m * fleet.layer[rows]), initial=0.0
    )
    reach = cfg.vertical_separation_coeff * np.maximum.reduce(fleet.speed[rows], initial=0.0)
    layers = (fleet.bounds[1:] > fleet.bounds[:-1]).sum()
    return bool(cfg.layer_spacing_m - 2.0 * offset >= reach or layers < 2)


@pytest.mark.parametrize("max_offset", [50.0, 2.2])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_fleet_derives_its_shared_quantities_once(max_offset, data):
    """``fleet.offset`` and ``fleet.paired``, built once per fleet, equal
    what each stage used to derive for itself, and the stages that read them
    return the same bits as the formulas they replaced."""
    fleet = _layered_fleet(data, max_offset)
    n = len(fleet.x)
    want = _layer_offset_reference(fleet, CFG)
    assert fleet.offset.tobytes() == want.tobytes()
    prec = _ring_reference(fleet, CFG)[2]
    assert fleet.paired.tolist() == fleet.order[prec[fleet.order] >= 0].tolist()
    assert sorted(fleet.paired.tolist()) == (prec >= 0).nonzero()[0].tolist()
    if len(fleet.paired) < len(fleet.order):
        event("a lone resident")
    if not fleet.resident.all():
        event("a non-resident")
    weight = data.draw(st.sampled_from([1.0, 1e-4, 0.05]) | st.floats(0.0, 10.0))
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=int)
    goals = Goals(rows, np.array([data.draw(st.floats(0.0, 1999.999)) for _ in rows]))
    pairs = (
        (attract_gradient(fleet, weight), _attract_gradient_reference(fleet, weight)),
        (layer_gradient(fleet, weight), (np.zeros(n), weight * 2.0 * want)),
        (goal_gradient(fleet, goals, CFG, weight),
         _goal_gradient_reference(fleet, goals, CFG, weight)),
    )
    for got, ref in pairs:
        for g, r in zip(got, ref):
            assert g.tobytes() == r.tobytes()
    with mock.patch.object(airspace, "ring_laps", wraps=airspace.ring_laps) as laps:
        got = cross_layer_conflicts(fleet, CFG)
    event("rule evaluated" if laps.called else "rule skipped by the bound")
    assert laps.called != _cross_layer_skipped_reference(fleet, CFG)
    assert got.tolist() == _cross_layer_reference(fleet, CFG)


# x as a fraction of the course: on the seam, coincident, or anywhere
_fraction = st.sampled_from([0.0, 0.25, 0.5, 0.999]) | st.floats(0.0, 1.0, exclude_max=True)


def _window_bound(reach, course):
    """How far round the ring a candidate of ``ring_pairs`` can measure with
    ``ring_offset``: reach plus the window's slack, 1e-9 (course + reach),
    plus rounding.  The window's keys and bounds reach ten courses, each
    rounded within 8 ulps of the course, and ``ring_offset`` rounds the
    difference and its half-course shift within an ulp each."""
    return reach + 1e-9 * (course + reach) + 32 * np.spacing(course)


@settings(max_examples=300, deadline=None)
@given(
    craft=st.lists(
        st.tuples(_fraction, st.integers(0, 2), st.sampled_from([True, True, False])),
        min_size=1, max_size=12,
    ),
    course=st.sampled_from([200.0, 2000.0]),
    reach=st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0]) | st.floats(0.0, 3.0),
    edge=st.none() | st.integers(0, 11),
    data=st.data(),
)
def test_ring_pairs_hold_every_resident_in_reach_once(craft, course, reach, edge, data):
    """Every resident of the queried layer with |ring_offset| <= reach is a
    candidate of the query exactly once, and no candidate lies beyond reach
    plus the rounding slack, 1e-9 (course + reach), as far as floats can
    measure it (``_window_bound``).  The fleets wrap the
    ring and have empty layers and lone residents; reaches run from 0 to
    3 courses.  With ``edge``, the reach is the ring offset from the first
    query to a resident of its layer, so the window's edge is hit exactly
    in floating point."""
    frac, lay, resident = (np.array(c) for c in zip(*craft))
    n = len(craft)
    x = (frac * course) % course
    reach *= course
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=edge is not None, max_size=8))
    one = data.draw(st.none() | st.integers(0, 2))  # one layer for all queries, or one each
    each = st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))
    layers = np.full(len(rows), one) if one is not None else np.array(data.draw(each), dtype=int)
    if edge is not None:
        j = edge % n
        lay[j], resident[j] = layers[0], True
        reach = float(np.abs(ring_offset(x[j] - x[rows[0]], course)))
    cfg = AirspaceConfig(course_length_m=course)
    fleet = fleet_state(x, lay * 100.0, np.zeros(n), np.zeros(n), lay, resident, np.arange(n), cfg)
    laps = ring_laps(fleet, course)
    k, j = ring_pairs(fleet, laps, layers if one is None else one, np.array(rows, dtype=int), reach)
    assert np.all(np.diff(k) >= 0)
    for q, row in enumerate(rows):
        got = j[k == q]
        members = np.flatnonzero(resident & (lay == layers[q]))
        assert len(set(got.tolist())) == len(got) and np.all(np.isin(got, members))
        off = np.abs(ring_offset(x[got] - x[row], course))
        assert np.all(off <= _window_bound(reach, course))
        near = members[np.abs(ring_offset(x[members] - x[row], course)) <= reach]
        assert np.all(np.isin(near, got))


def test_a_candidate_at_the_slack_measures_within_the_bound():
    """A drawn case: residents at x = 0 and 2e-7 on a 200 m course, reach 0.
    The window holds the second, whose key lies at the slack 1e-9 * 200;
    ``ring_offset``'s half-course shift rounds its offset to 2.00000002e-7,
    past the slack itself but within the bound."""
    course, x = 200.0, np.array([0.0, 2e-7])
    zero, lay = np.zeros(2), np.zeros(2, dtype=int)
    cfg = AirspaceConfig(course_length_m=course)
    fleet = fleet_state(x, zero, zero, zero, lay, np.ones(2, dtype=bool), np.arange(2), cfg)
    _, j = ring_pairs(fleet, ring_laps(fleet, course), 0, np.array([0]), 0.0)
    assert sorted(j.tolist()) == [0, 1]
    off = np.abs(ring_offset(x[j] - x[0], course))
    assert off.max() > 1e-9 * course
    assert np.all(off <= _window_bound(0.0, course))


def test_ring_pairs_reach_round_the_ring_once():
    """A reach of several courses holds each resident of the layer once,
    and never one of the layer below or above."""
    x, lay = np.array([500.0, 1500.0, 100.0]), np.array([0, 0, 1])
    zero = np.zeros(3)
    fleet = fleet_state(x, lay * 100.0, zero, zero, lay, np.ones(3, bool), np.arange(3), CFG)
    laps = ring_laps(fleet, CFG.course_length_m)
    for layer, want in ((1, [2]), (0, [0, 1])):
        k, j = ring_pairs(fleet, laps, layer, np.array([2]), 2.5 * CFG.course_length_m)
        assert k.tolist() == [0] * len(want) and sorted(j.tolist()) == want


def test_same_layer_conflict_uses_faster_speed():
    # 140 m apart: inside the 45 m/s bubble (149.06) but outside 30 m/s (71.25)
    slow = (0, 0.0, 0.0, 30.0, 0.0, 0)
    fast = (1, 140.0, 0.0, 45.0, 0.0, 0)
    assert _conflicts(_fleet([slow, fast])) == {(0, 1)}
    assert _conflicts(_fleet([fast, slow])) == {(0, 1)}
    slow2 = (1, 140.0, 0.0, 30.0, 0.0, 0)
    assert _conflicts(_fleet([slow, slow2])) == set()


def test_pair_distance():
    fleet = _fleet([(0, 0.0, 0.0, 10.0, 0.0, 0), (1, 3.0, 4.0, 10.0, 0.0, 0)])
    assert fleet.front[0] == pytest.approx(5.0, abs=1e-12)
    assert fleet.rear[1] == pytest.approx(5.0, abs=1e-12)
    # the other way round the ring
    assert fleet.front[1] == pytest.approx(math.hypot(1997.0, 4.0), abs=1e-9)
    assert fleet.order.tolist() == fleet.paired.tolist() == [0, 1]
    assert (fleet.ahead_x[1], fleet.ahead_h[1]) == (1997.0, -4.0)


def test_ring_skips_the_alone_and_the_switching():
    rows = [(0, 0.0, 0.0, 30.0, 0.0, 0), (1, 10.0, 95.0, 30.0, 5.0, 0), (2, 10.0, 100.0, 45.0, 0.0, 1)]
    fleet = _fleet(rows, resident=[True, False, True])
    assert np.all(np.isinf(fleet.front)) and np.all(np.isinf(fleet.rear))
    assert fleet.order.tolist() == [0, 2] and len(fleet.paired) == 0
    assert _ids(fleet, fleet.conflicts) == set()
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
    for rate in ("reaction_delay_s", "vertical_separation_coeff"):
        with pytest.raises(ValueError, match="cannot be negative"):
            AirspaceConfig(**{rate: -1.0})
