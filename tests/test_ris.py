"""Reflected-path channel model: gains, phase alignment, quantization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamsim.ris import (
    ChannelParams,
    PhaseShiftConfig,
    RowPhases,
    aligned_snr,
    capacity,
    cascaded_gain,
    cascaded_gain_bound,
    direct_gain,
    interference_at,
    optimal_phase_shift,
    quantize_config,
    quantize_phase,
    snr,
    steering_indices,
)


PAR = ChannelParams()


def test_steering_indices_cycle():
    assert list(steering_indices(9)) == [0, 1, 2, 0, 1, 2, 0, 1, 2]
    assert list(steering_indices(4)) == [0, 1, 0, 1]
    u = steering_indices(1024)
    assert u.min() == 0 and u.max() == 31
    # each index appears equally often
    assert all(np.sum(u == k) == 32 for k in range(32))


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
        draw = PhaseShiftConfig(
            phases=tuple(float(p) for p in rng.uniform(0.0, 2 * math.pi - 1e-9, n)),
            resolution=None,
        )
        got = abs(cascaded_gain(bs, ris, k, draw, PAR))
        assert got <= cascaded_gain_bound(bs, ris, k, n, PAR) * (1 + 1e-12)


def test_quantize_phase_examples():
    step = math.pi / 12.0
    assert quantize_phase(0.3, 1.0 / 12.0) == pytest.approx(step, abs=1e-12)
    assert quantize_phase(0.12, 1.0 / 12.0) == pytest.approx(0.0, abs=1e-12)
    # exact midpoint rounds to the smaller multiple
    assert quantize_phase(1.5 * step, 1.0 / 12.0) == pytest.approx(step, abs=1e-12)
    # coarse one-bit grid: everything near pi snaps onto pi
    assert quantize_phase(3.0, 1.0) == pytest.approx(math.pi, abs=1e-12)


def test_quantize_error_bounded_by_half_step():
    rng = np.random.default_rng(77)
    for res in (1.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 12.0):
        step = res * math.pi
        errs = []
        for _ in range(500):
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            q = quantize_phase(theta, res)
            errs.append(abs(q - theta))
        assert max(errs) <= step / 2.0 + 1e-12
        print(f"res {res:.4f}: max quantization error {max(errs):.4f} rad")


def test_quantize_config_stays_in_range():
    rng = np.random.default_rng(3)
    raw = PhaseShiftConfig(
        phases=tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi - 1e-6, 16)),
        resolution=None,
    )
    snapped = quantize_config(raw, 1.0 / 6.0)
    assert snapped.resolution == 1.0 / 6.0
    step = math.pi / 6.0
    for p in snapped.phases:
        assert 0.0 <= p < 2.0 * math.pi
        assert abs(p / step - round(p / step)) < 1e-9


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        PhaseShiftConfig(phases=(0.0, 0.1, 0.2), resolution=None)  # not square
    with pytest.raises(ValueError):
        PhaseShiftConfig(phases=(0.0, 7.0, 0.0, 0.0), resolution=None)  # out of range
    with pytest.raises(ValueError):
        # claims a grid it does not sit on
        PhaseShiftConfig(phases=(0.0, 0.1, 0.0, 0.0), resolution=1.0)
    with pytest.raises(ValueError):
        quantize_phase(0.3, 0.0)


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


def _per_element(rows: RowPhases) -> PhaseShiftConfig:
    """The same surface written element by element: element l takes row l mod sqrt(L)."""
    root = len(rows.phases)
    return PhaseShiftConfig(
        phases=tuple(np.tile(rows.phases, root).tolist()), resolution=rows.resolution
    )


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
    rows = RowPhases(
        np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi - 1e-9, math.isqrt(n)), n
    )
    by_rows = cascaded_gain(bs, ris, k, rows, PAR)
    by_elements = cascaded_gain(bs, ris, k, _per_element(rows), PAR)
    assert abs(by_rows - by_elements) <= 1e-12 * cascaded_gain_bound(bs, ris, k, n, PAR)


def test_row_quantization_matches_the_element_quantization():
    rng = np.random.default_rng(9)
    for res in (1.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 12.0):
        rows = RowPhases(rng.uniform(0.0, 2.0 * math.pi - 1e-9, 32), 1024)
        snapped = quantize_config(rows, res)
        assert isinstance(snapped, RowPhases) and snapped.resolution == res
        assert quantize_config(_per_element(rows), res) == _per_element(snapped)
        for theta, q in zip(rows.phases, snapped.phases):
            assert q == math.fmod(quantize_phase(float(theta), res), 2.0 * math.pi)


def test_row_phase_validation():
    with pytest.raises(ValueError):
        RowPhases(np.zeros(3), 16)  # sqrt(16) = 4 rows
    with pytest.raises(ValueError):
        RowPhases(np.zeros(3), 10)  # not square
    with pytest.raises(ValueError):
        RowPhases(np.array([0.0, 7.0]), 4)
    with pytest.raises(ValueError):
        RowPhases(np.array([0.0, math.nan]), 4)
    with pytest.raises(ValueError):
        RowPhases(np.array([0.0, 0.1]), 4, resolution=1.0)
    rows = RowPhases(np.array([0.0, math.pi]), 4, resolution=1.0)
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
