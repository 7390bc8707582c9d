"""Exact grid planner, checked against the swarm oracle and random sampling."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamsim import planner, ris, scenarios
from uamsim.engine import PhaseMode, run
from uamsim.planner import (
    PlanningQuery,
    PsoParams,
    best_mismatch,
    cosine_mismatch,
    grid_fitness,
    pso_minimize,
    pso_optimize,
)


def _query(resolution=1.0 / 12.0, num_elements=1024):
    return PlanningQuery(
        bs_pos=(0.0, 0.0),
        low_pos=(300.0, 100.0),
        high_pos=(500.0, 200.0),
        horizon_m=(200.0, 260.0),
        num_elements=num_elements,
        resolution=resolution,
    )


def candidate_fitness(xs, query):
    """Grid fitness over an (n, 2) array of in-box candidates, each
    candidate's mismatch taken by the planner's own scalar function."""
    mism = [cosine_mismatch(xl, xh, query) for xl, xh in xs.tolist()]
    return grid_fitness(mism, query.num_elements, query.resolution)


def _corners(query):
    """The search box as (lower, upper) arrays over (x_low, x_high)."""
    (low_near, low_far), (high_near, high_far) = query.search_box()
    return np.array([low_near, high_near]), np.array([low_far, high_far])


def _element_fitness(mism, query):
    """Reference: the P4 fitness element by element over all L elements."""
    u = np.arange(query.num_elements) % math.isqrt(query.num_elements)
    terms = u * mism
    residual = terms - np.round(terms / query.resolution) * query.resolution
    return float(np.mean(residual**2))


def _oracle(query, seed):
    """Swarm search over the same box, as the simulator used to plan."""
    lower, upper = _corners(query)
    rng = np.random.default_rng(seed)
    if query.low_fixed:
        def fit(xs):
            return candidate_fitness(np.column_stack([np.full(len(xs), lower[0]), xs[:, 0]]), query)

        _, f = pso_minimize(fit, lower[1:], upper[1:], PsoParams(), rng)
        return f
    _, f = pso_minimize(lambda xs: candidate_fitness(xs, query), lower, upper, PsoParams(), rng)
    return f


def _random_best(query, rng, n=200):
    """Best fitness of n uniform draws from the half-open box."""
    lx, hx = query.low_pos[0], query.high_pos[0]
    xh = hx + query.horizon_m[1] * (1.0 - rng.random(n))
    if query.low_fixed:
        xl = np.full(n, lx)
    else:
        xl = lx + query.horizon_m[0] * (1.0 - rng.random(n))
    return float(np.min(candidate_fitness(np.column_stack([xl, xh]), query)))


def _fitness(point, query):
    """Grid fitness of one (x_low, x_high) candidate."""
    mism = cosine_mismatch(point[0], point[1], query)
    return float(grid_fitness(mism, query.num_elements, query.resolution))


def _assert_in_box(point, query):
    xl, xh = point
    lx, hx = query.low_pos[0], query.high_pos[0]
    if query.low_fixed:
        assert xl == lx
    else:
        assert lx < xl <= lx + query.horizon_m[0]
    assert hx < xh <= hx + query.horizon_m[1]


def test_swarm_fitness_matches_scalar_everywhere():
    """The vectorized fitness of in-box candidates equals the per-point one,
    and both equal the element-by-element mean over all L elements."""
    q = _query()
    rng = np.random.default_rng(2024)
    xs = np.column_stack(
        [
            rng.uniform(300.0 + 1e-6, 500.0, 64),
            rng.uniform(500.0 + 1e-6, 760.0, 64),
        ]
    )
    vec = candidate_fitness(xs, q)
    for row, f in zip(xs, vec):
        _assert_in_box(row, q)
        assert f == pytest.approx(_fitness(row, q), rel=1e-12, abs=1e-18)
        mism = cosine_mismatch(row[0], row[1], q)
        assert f == pytest.approx(_element_fitness(mism, q), rel=1e-12, abs=1e-18)


def test_out_of_box_is_infeasible():
    """The search box runs strictly ahead of each aircraft up to its horizon;
    a fixed surface's x_low is pinned where it is."""

    def inside(point, query):
        lower, upper = _corners(query)
        return bool(np.all((lower <= point) & (point <= upper)))

    q = _query()
    assert not inside((299.0, 600.0), q)
    assert not inside((400.0, 900.0), q)
    assert not inside((300.0, 600.0), q)
    assert inside((400.0, 600.0), q)
    assert inside((500.0, 760.0), q)
    fixed = replace(q, low_fixed=True)
    assert inside((300.0, 600.0), fixed)
    assert not inside((400.0, 600.0), fixed)


def test_zero_mismatch_means_zero_fitness():
    # symmetric geometry: incoming and outgoing rays share a cosine
    q = PlanningQuery(
        bs_pos=(0.0, 0.0),
        low_pos=(80.0, 100.0),
        high_pos=(100.0, 200.0),
        horizon_m=(400.0, 500.0),
        num_elements=16,
        resolution=1.0 / 12.0,
    )
    # pick x_low, then solve for x_high giving the same direction cosine
    x_low = 300.0
    d1 = math.hypot(x_low, 100.0)
    c = x_low / d1
    # (x_high - x_low) / sqrt((x_high-x_low)^2 + 100^2) = c
    dx = c * 100.0 / math.sqrt(1.0 - c * c)
    x_high = x_low + dx
    assert cosine_mismatch(x_low, x_high, q) == pytest.approx(0.0, abs=1e-12)
    assert _fitness((x_low, x_high), q) == pytest.approx(0.0, abs=1e-18)


def test_pso_minimizes_a_convex_bowl():
    rng = np.random.default_rng(7)

    def bowl(xs):
        return np.sum((xs - np.array([2.0, -1.0])) ** 2, axis=1)

    best, fit = pso_minimize(
        bowl,
        lower=np.array([-10.0, -10.0]),
        upper=np.array([10.0, 10.0]),
        params=PsoParams(),
        rng=rng,
    )
    print(f"bowl optimum found at {best} (fitness {fit:.2e})")
    assert fit < 1e-6
    assert np.allclose(best, [2.0, -1.0], atol=1e-2)


def test_pso_is_deterministic_per_seed():
    """Equal queries give bit-equal answers; the answer lies in the box and
    is no worse than the swarm from either of two seeds."""
    q = _query()
    a = pso_optimize(q)
    b = pso_optimize(_query())
    assert a[0] == b[0] and a[1] == b[1]
    (xl, xh), fit = a
    assert 300.0 < xl <= 500.0 and 500.0 < xh <= 760.0
    assert math.isfinite(fit)
    _assert_in_box((xl, xh), q)
    assert fit == _fitness((xl, xh), q)
    for seed in (42, 43):
        assert fit <= _oracle(q, seed) * (1.0 + 1e-9)


def test_pso_beats_random_sampling():
    q = _query()
    rng = np.random.default_rng(17)
    (xl, xh), fit = pso_optimize(q)
    draws = np.column_stack(
        [
            rng.uniform(300.0 + 1e-6, 500.0, 200),
            rng.uniform(500.0 + 1e-6, 760.0, 200),
        ]
    )
    baseline = float(np.min(candidate_fitness(draws, q)))
    print(f"exact fitness {fit:.3e} vs best of 200 random draws {baseline:.3e}")
    assert fit <= baseline * (1.0 + 1e-9)


def test_query_validation():
    with pytest.raises(ValueError):
        _query(num_elements=12)
    with pytest.raises(ValueError):
        _query(resolution=0.0)
    with pytest.raises(ValueError):
        PlanningQuery(
            bs_pos=(0.0, 0.0),
            low_pos=(0.0, 100.0),
            high_pos=(0.0, 200.0),
            horizon_m=(0.0, 100.0),
            num_elements=4,
            resolution=0.5,
        )
    with pytest.raises(ValueError):
        PsoParams(swarm_size=0)


def test_no_grid_multiple_in_range_takes_the_piecewise_minimum():
    """Without a zero in range the answer is the dense-scan minimum, or
    better, also where that minimum lies inside a piece (m = 5/42 here)."""
    res, n = 1.0 / 3.0, 16
    for m_lo, m_hi in ((0.05, 0.3), (0.07, 0.17)):  # no multiple of 1/3 in range
        m = best_mismatch(m_lo, m_hi, n, res, near=0.2)
        assert m_lo <= m <= m_hi
        scan = np.linspace(m_lo, m_hi, 200_001)
        assert grid_fitness(m, n, res) <= float(np.min(grid_fitness(scan, n, res)))
    assert m == pytest.approx(5.0 / 42.0, rel=1e-12)


def test_zero_fitness_prefers_the_multiple_nearest_the_reference():
    res, n = 1.0 / 12.0, 1024
    assert best_mismatch(0.3, 0.4, n, 1.0 / 3.0, near=0.0) == 1.0 / 3.0
    assert best_mismatch(0.05, 0.3, n, res, near=0.0) == 1 * res
    assert best_mismatch(0.05, 0.3, n, res, near=0.2) == 2 * res
    assert best_mismatch(0.05, 0.3, n, res, near=9.0) == 3 * res


_geometry = st.fixed_dictionaries(
    {
        "bx": st.floats(-500.0, 500.0),
        "low": st.tuples(st.floats(0.0, 2000.0), st.floats(60.0, 140.0)),
        "high": st.tuples(st.floats(0.0, 2000.0), st.floats(160.0, 240.0)),
        "horizon": st.tuples(st.floats(1.0, 100.0), st.floats(1.0, 100.0)),
        "resolution": st.sampled_from([1.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 12.0]),
        "elements": st.sampled_from([4, 16, 1024]),
        "low_fixed": st.booleans(),
    }
)


def _from(g):
    return PlanningQuery(
        bs_pos=(g["bx"], 0.0),
        low_pos=g["low"],
        high_pos=g["high"],
        horizon_m=g["horizon"],
        num_elements=g["elements"],
        resolution=g["resolution"],
        low_fixed=g["low_fixed"],
    )


@settings(max_examples=80, deadline=None)
@given(_geometry, st.integers(0, 2**32 - 1))
def test_exact_planner_never_loses(g, seed):
    """On random geometries, airborne and fixed: in the box, deterministic,
    and no worse than the swarm oracle or 200 random in-box draws.  The
    absolute slack, 1e-24 rad^2, is a phase error of 1e-12 rad."""
    q = _from(g)
    point, fit = pso_optimize(q)
    _assert_in_box(point, q)
    assert pso_optimize(_from(g)) == (point, fit)
    assert fit == _fitness(point, q)
    assert fit <= _oracle(q, seed) * (1.0 + 1e-9) + 1e-24
    assert fit <= _random_best(q, np.random.default_rng(seed)) * (1.0 + 1e-9) + 1e-24


def _recording(module, name, calls):
    """Patch module.name with a spy that records (args, result) per call."""
    real = getattr(module, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    return mock.patch.object(module, name, spy)


@settings(max_examples=200, deadline=None)
@given(_geometry)
def test_the_plan_starts_from_the_mismatch_the_surface_steers_by(g):
    """The mismatch pso_optimize prefers zeros near is, bit for bit, the one
    optimal_phase_shift steers the surface by at the pair's current
    positions: both are ris.cascade_geometry's."""
    q = _from(g)
    plans, steers = [], []
    with _recording(planner, "best_mismatch", plans):
        pso_optimize(q)
    with _recording(ris, "cascade_geometry", steers):
        ris.optimal_phase_shift(q.bs_pos, q.low_pos, q.high_pos, q.num_elements)
    near = plans[0][0][-1]  # best_mismatch's last argument
    steered = steers[0][1][2]  # the mismatch of cascade_geometry's one call
    assert len(steers) == 1
    assert type(near) is float and near.hex() == steered.hex()


def test_quantized_stationary_run_plans_with_the_surface_fixed():
    sc = replace(
        scenarios.get_scenario("fig6-stationary", seed=2),
        phase_mode=PhaseMode.QUANTIZED,
        duration_s=6.0,
    )
    a, b = run(sc), run(sc)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.capacity_bps, b.capacity_bps)
    assert np.count_nonzero(a.capacity_bps) > 0
    assert np.all(a.ris_partner == -1)
