"""Reflected-path channel model: gains, phase alignment, quantization."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamsim.engine import validate_scenario
from uamsim.ris import (
    ChannelParams,
    RowPhases,
    aligned_snr,
    capacity,
    cascaded_gain,
    cascaded_gain_bound,
    direct_gain,
    grid_steps,
    interference_at,
    optimal_phase_shift,
    quantize_config,
    snr,
    steering_rows,
)
from uamsim.scenarios import get_scenario


PAR = ChannelParams()


def _element_cascade(bs, ris, k, rows, params):
    """Reference cascade summed element by element over all L = rows**2
    elements: element l has steering index l mod sqrt(L) and takes the phase
    of that row."""
    root = len(rows.phases)
    u = np.arange(root * root) % root
    theta = np.tile(rows.phases, root)
    d1 = math.hypot(ris[0] - bs[0], ris[1] - bs[1])
    d2 = math.hypot(k[0] - ris[0], k[1] - ris[1])
    mismatch = (ris[0] - bs[0]) / d1 - (k[0] - ris[0]) / d2
    amp = params.ref_gain / math.sqrt(d1**params.alpha_bs_i * d2**params.alpha_i_k)
    return complex(amp * np.exp(1j * (math.pi * u * mismatch + theta)).sum())


def _snap(theta, resolution):
    """quantize_config on a single row phase."""
    return float(quantize_config(RowPhases(np.array([theta])), resolution).phases[0])


def test_direct_gain_inverse_power_law():
    g = direct_gain((0.0, 0.0), (300.0, 40.0), PAR)
    d = math.hypot(300.0, 40.0)
    assert abs(g) == pytest.approx(math.sqrt(1e-3 / d**2.5), rel=1e-12)
    # doubling the distance along the same ray scales by 2^(-alpha/2)
    g2 = direct_gain((0.0, 0.0), (600.0, 80.0), PAR)
    assert abs(g2) / abs(g) == pytest.approx(2 ** (-1.25), rel=1e-12)


def test_optimal_phases_reach_the_bound():
    """Aligned elements must add coherently to exactly L * amplitude."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(300):
        n = int(rng.choice([4, 9, 16, 25]))
        bs = (float(rng.uniform(-200, 200)), 0.0)
        ris = (float(rng.uniform(0, 2000)), 100.0)
        k = (float(rng.uniform(0, 2000)), 200.0)
        if ris[0] == bs[0] or ris[0] == k[0]:
            continue
        phases = optimal_phase_shift(bs, ris, k, n)
        got = abs(cascaded_gain(bs, ris, k, phases, PAR))
        bound = cascaded_gain_bound(bs, ris, k, n, PAR)
        rel = abs(got - bound) / bound
        worst = max(worst, rel)
        assert rel < 1e-9
    print(f"worst relative gap to the coherent bound: {worst:.2e}")


def test_random_phases_never_beat_the_bound():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.choice([4, 16]))
        bs = (0.0, 0.0)
        ris = (float(rng.uniform(100, 1000)), 100.0)
        k = (float(rng.uniform(100, 1900)), 200.0)
        draw = RowPhases(rng.uniform(0.0, 2 * math.pi - 1e-9, math.isqrt(n)))
        got = abs(cascaded_gain(bs, ris, k, draw, PAR))
        assert got <= cascaded_gain_bound(bs, ris, k, n, PAR) * (1 + 1e-12)


def test_quantize_phase_examples():
    step = math.pi / 12.0
    assert _snap(0.3, 1.0 / 12.0) == pytest.approx(step, abs=1e-12)
    assert _snap(0.12, 1.0 / 12.0) == pytest.approx(0.0, abs=1e-12)
    # exact midpoint rounds to the smaller multiple
    assert _snap(1.5 * step, 1.0 / 12.0) == pytest.approx(step, abs=1e-12)
    # coarse one-bit grid: everything near pi snaps onto pi
    assert _snap(3.0, 1.0) == pytest.approx(math.pi, abs=1e-12)
    # the multiple at 2*pi wraps to 0
    assert _snap(2.0 * math.pi - 0.01, 1.0 / 12.0) == 0.0


def test_quantize_error_bounded_by_half_step():
    """The snapped phase is within half a grid step of the raw one, measured
    around the circle, since the top multiple wraps to 0."""
    rng = np.random.default_rng(77)
    for res in (1.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 12.0):
        step = res * math.pi
        theta = rng.uniform(0.0, 2.0 * math.pi, 500)
        q = quantize_config(RowPhases(theta), res).phases
        errs = np.abs(np.mod(q - theta + math.pi, 2.0 * math.pi) - math.pi)
        assert errs.max() <= step / 2.0 + 1e-12
        print(f"res {res:.4f}: max quantization error {errs.max():.4f} rad")


def test_quantize_config_stays_in_range():
    rng = np.random.default_rng(3)
    raw = RowPhases(rng.uniform(0.0, 2.0 * math.pi - 1e-6, 16))
    snapped = quantize_config(raw, 1.0 / 6.0)
    assert snapped.resolution == 1.0 / 6.0
    step = math.pi / 6.0
    for p in snapped.phases:
        assert 0.0 <= p < 2.0 * math.pi
        assert abs(p / step - round(p / step)) < 1e-9


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        RowPhases(np.array([0.0, 7.0]))  # out of range
    with pytest.raises(ValueError):
        # claims a grid it does not sit on
        RowPhases(np.array([0.0, 0.1]), resolution=1.0)
    with pytest.raises(ValueError):
        RowPhases(np.zeros(2), resolution=0.0)
    with pytest.raises(ValueError):
        quantize_config(RowPhases(np.array([0.3])), 0.0)


def test_snr_gains_from_surface():
    bs, ris, k = (0.0, 0.0), (400.0, 100.0), (700.0, 200.0)
    phases = optimal_phase_shift(bs, ris, k, 1024)
    direct_only = snr(bs, None, k, None, PAR)
    with_surface = snr(bs, ris, k, phases, PAR)
    assert with_surface > direct_only
    gain_db = 10.0 * math.log10(with_surface / direct_only)
    print(f"surface gain at the sample geometry: {gain_db:.2f} dB")
    assert capacity(with_surface, PAR) > capacity(direct_only, PAR)


def test_capacity_closed_form():
    assert capacity(3.0, PAR) == pytest.approx(2.0, rel=1e-12)
    assert capacity(0.0, PAR) == 0.0
    with pytest.raises(ValueError):
        capacity(-0.5, PAR)


def test_interference_power_law():
    par = ChannelParams(
        interference_pos=(800.0, 100.0),
        interference_power_w=1.26e-3,
        interference_alpha=2.2,
    )
    at = interference_at((800.0, 200.0), par)
    assert at == pytest.approx(1.26e-3 * 1e-3 / 100.0**2.2, rel=1e-12)
    assert interference_at((0.0, 0.0), PAR) == 0.0


def test_interference_raises_failure_floor():
    bs, k = (0.0, 0.0), (820.0, 200.0)
    par = ChannelParams(
        interference_pos=(800.0, 100.0),
        interference_power_w=1.26e-3,
        interference_alpha=2.2,
    )
    assert snr(bs, None, k, None, par) < snr(bs, None, k, None, PAR)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-500.0, 500.0),
    st.floats(0.0, 2000.0),
    st.floats(0.0, 2000.0),
    st.sampled_from([4, 16, 1024]),
    st.integers(0, 2**32 - 1),
)
def test_row_cascade_equals_the_element_cascade(bx, rx, kx, n, seed):
    bs, ris, k = (bx, 0.0), (rx, 100.0), (kx, 200.0)
    rows = RowPhases(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi - 1e-9, math.isqrt(n)))
    by_rows = cascaded_gain(bs, ris, k, rows, PAR)
    by_elements = _element_cascade(bs, ris, k, rows, PAR)
    assert abs(by_rows - by_elements) <= 1e-12 * cascaded_gain_bound(bs, ris, k, n, PAR)


def test_row_quantization_matches_the_element_quantization():
    """quantize_config snaps each row as the one-phase rule would: the
    nearest multiple, midpoints down, wrapped into [0, 2*pi)."""
    rng = np.random.default_rng(9)
    for res in (1.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 12.0):
        rows = RowPhases(rng.uniform(0.0, 2.0 * math.pi - 1e-9, 32))
        snapped = quantize_config(rows, res)
        assert isinstance(snapped, RowPhases) and snapped.resolution == res
        step = res * math.pi
        for theta, q in zip(rows.phases, snapped.phases):
            one = math.fmod(math.ceil(float(theta) / step - 0.5) * step, 2.0 * math.pi)
            assert q == (0.0 if one >= 2.0 * math.pi else one)


# Relative slack of the floor below, fixed before any run: the phases'
# rounding moves a term by about 1e-13 of the bound at most.
FLOOR_SLACK = 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-500.0, 500.0), st.floats(0.0, 50.0),
    st.floats(-500.0, 2500.0), st.floats(60.0, 150.0),
    st.floats(-500.0, 2500.0), st.floats(160.0, 300.0),
    st.integers(1, 32),
    st.just(2) | st.integers(1, 48),
)
def test_quantized_phases_keep_the_cascade_above_the_floor(bx, bh, rx, rh, kx, kh, rows, steps):
    """quantize_config moves each row phase by at most r * pi / 2, r = 2 /
    steps, so at the geometry the phases were steered for every element's
    term lies within r * pi / 2 of the real axis, and the cascade keeps
    |cascaded_gain| >= cos(r * pi / 2) * cascaded_gain_bound.  About half
    the examples draw r = 1 (two steps)."""
    bs, ris, k = (bx, bh), (rx, rh), (kx, kh)
    r, n = 2.0 / steps, rows * rows
    snapped = quantize_config(optimal_phase_shift(bs, ris, k, n), r)
    got = abs(cascaded_gain(bs, ris, k, snapped, PAR))
    bound = cascaded_gain_bound(bs, ris, k, n, PAR)
    assert got >= (math.cos(r * math.pi / 2.0) - FLOOR_SLACK) * bound


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 512), st.integers(0, 2**32 - 1))
def test_quantized_rows_lie_on_a_grid_that_divides_the_turn(n, seed):
    """On the grid 2*pi/n for any whole n: every snapped row is a whole
    step in [0, 2*pi), within half a step of its phase around the circle."""
    res = 2.0 / n
    assert grid_steps(res) == n
    step = res * math.pi
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, 64)
    q = quantize_config(RowPhases(theta), res).phases
    assert np.all((q >= 0.0) & (q < 2.0 * math.pi))
    index = q / step
    assert np.all(np.abs(index - np.rint(index)) <= 1e-9)
    errs = np.abs(np.mod(q - theta + math.pi, 2.0 * math.pi) - math.pi)
    assert errs.max() <= step / 2.0 + 1e-12


@pytest.mark.parametrize("res", [0.0, -1.0, math.nan, math.inf, 0.3, 0.7, 3.0, 4.0])
def test_a_grid_that_does_not_divide_the_turn_is_rejected(res):
    """One rule for the phase resolution, shared by validation, the quantizer
    and RowPhases; 0.3 used to pass every check but the run's."""
    assert [grid_steps(r) for r in (2.0, 1.0, 2.0 / 3.0, 1.0 / 12.0, 1.0 / 7.0)] == [1, 2, 3, 24, 14]
    with pytest.raises(ValueError, match="2/n for a whole number"):
        grid_steps(res)
    with pytest.raises(ValueError, match="2/n for a whole number"):
        quantize_config(RowPhases(np.array([0.3])), res)
    with pytest.raises(ValueError, match="2/n for a whole number"):
        RowPhases(np.zeros(2), resolution=res)
    sc = replace(get_scenario("fig9-phase"), phase_resolution=res)
    problem = "phase resolution must be 2/n for a whole number n >= 1"
    assert validate_scenario(sc) == [problem if math.isfinite(res) else "phase_resolution must be finite"]


@pytest.mark.parametrize("count", [0, -4, 8, 1023])
def test_a_surface_is_a_positive_perfect_square(count):
    """One rule for the element count, shared by validation, the planner and
    the phase solver; a negative count used to crash validation in isqrt."""
    assert [steering_rows(n) for n in (1, 4, 1024)] == [1, 2, 32]
    with pytest.raises(ValueError, match="positive perfect square"):
        steering_rows(count)
    sc = replace(get_scenario("fig9-phase"), ris_elements=count)
    assert validate_scenario(sc) == ["surface element count must be a positive perfect square"]


def test_row_phase_validation():
    with pytest.raises(ValueError):
        RowPhases(np.zeros((2, 2)))  # one value per row, not a grid
    with pytest.raises(ValueError):
        RowPhases(np.zeros(0))
    with pytest.raises(ValueError):
        RowPhases(np.array([0.0, 7.0]))
    with pytest.raises(ValueError):
        RowPhases(np.array([0.0, math.nan]))
    with pytest.raises(ValueError):
        RowPhases(np.array([0.0, 0.1]), resolution=1.0)
    rows = RowPhases(np.array([0.0, math.pi]), resolution=1.0)
    with pytest.raises(ValueError):
        rows.phases[0] = 1.0


def test_aligned_snr_is_the_optimal_phase_snr():
    rng = np.random.default_rng(31)
    par = ChannelParams(interference_pos=(800.0, 100.0), interference_power_w=1e-3)
    for _ in range(200):
        n = int(rng.choice([4, 16, 1024]))
        bs = (float(rng.uniform(-200, 200)), 0.0)
        ris = (float(rng.uniform(0, 2000)), 100.0)
        k = (float(rng.uniform(0, 2000)), 200.0)
        best = snr(bs, ris, k, optimal_phase_shift(bs, ris, k, n), par)
        assert aligned_snr(bs, ris, k, n, par) == pytest.approx(best, rel=1e-12)
