"""Delay-bound machinery: service curves, tails, min-plus composition."""

import math
from dataclasses import replace

import numpy as np
import pytest

from uamsim.netcalc import (
    Ccdf,
    ChannelKind,
    LatencyRateCurve,
    ProtocolParams,
    check_scan,
    failure_curve,
    failure_probability,
    handshake_ccdf,
    min_plus_convolve,
    poisson_delay_tail,
    queueing_tail_ccdf,
    retransmission_ccdf,
    service_curve_stack,
)


PAR = ProtocolParams()


def test_latency_rate_curve_shape():
    beta = LatencyRateCurve(rate=20.0, latency=0.5)
    assert beta(0.25) == 0.0
    assert beta(0.5) == 0.0
    assert beta(1.5) == pytest.approx(20.0, rel=1e-12)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(beta(t), [0.0, 0.0, 10.0, 30.0])


def test_infinite_rate_is_pure_delay():
    delay = LatencyRateCurve(rate=math.inf, latency=0.5)
    np.testing.assert_array_equal(delay(np.array([0.0, 0.5, 0.51])), [0.0, 0.0, math.inf])
    c = min_plus_convolve(delay, LatencyRateCurve(40.0, 0.2))
    assert c.rate == 40.0
    assert c.latency == pytest.approx(0.7, rel=1e-12)


def test_stack_latencies():
    # data volume 10 Mb, access weight 1.2; CTS and RTR form one step
    ctrl = service_curve_stack(ChannelKind.CONTROL, PAR)
    assert ctrl.latency == pytest.approx(1.2 * 10.0 / 20.0, rel=1e-12)  # 0.6
    direct = service_curve_stack(ChannelKind.DIRECT, PAR)
    assert direct.latency == pytest.approx(1.2 * (3 / 20 + 3 / 20 + 10 / 40), rel=1e-12)
    ris = service_curve_stack(ChannelKind.RIS, PAR)
    assert ris.latency == pytest.approx(
        1.2 * (3 / 20 + max(3, 3) / 20 + 10 / 100 + 10 / 100), rel=1e-12
    )
    # only the hops the data crosses set the rate
    assert ctrl.rate == PAR.omni_rate
    assert direct.rate == PAR.direct_rate
    assert ris.rate == min(PAR.ris_rate_in, PAR.ris_rate_out)
    print(
        f"stack latencies: control={ctrl.latency:.3f} direct={direct.latency:.3f} "
        f"ris={ris.latency:.3f}"
    )

    # data rates on both sides of omni_rate: a composition that lets the
    # omnidirectional hop cap the data would give Direct 20 here, not 50
    par = ProtocolParams(
        omni_rate=20.0, direct_rate=50.0, ris_rate_in=80.0, ris_rate_out=10.0,
        cts_volume=2.0, rtr_volume=4.0,
    )
    ctrl = service_curve_stack(ChannelKind.CONTROL, par)
    direct = service_curve_stack(ChannelKind.DIRECT, par)
    ris = service_curve_stack(ChannelKind.RIS, par)
    assert (ctrl.rate, direct.rate, ris.rate) == (20.0, 50.0, 10.0)
    assert direct.latency == pytest.approx(1.2 * (3 / 20 + 2 / 20 + 10 / 50), rel=1e-12)
    assert ris.latency == pytest.approx(
        1.2 * (3 / 20 + 4 / 20 + 10 / 80 + 10 / 10), rel=1e-12
    )


def _brute_handshake_and_failure(kind, load, t_max, dt, par):
    """Failure tail of T = T_rts + T_step2 + T_queue by brute force over the grid.

    The message sequence, spelled out: Direct sends RTS, then CTS; Ris sends
    RTS, then CTS and RTR together, so its second step completes at
    max(T_cts, T_rtr), whose tail is at most the sum of the two tails.
    """
    n = int(round(t_max / dt)) + 1
    t = np.arange(n) * dt

    def retry_tail(ttl):
        return par.loss_prob ** np.ceil(t / ttl + 1.0)

    rts = retry_tail(par.rts_ttl)
    if kind is ChannelKind.DIRECT:
        step2 = retry_tail(par.cts_ttl)
    else:
        step2 = np.minimum(retry_tail(par.cts_ttl) + retry_tail(par.rtr_ttl), 1.0)
    handshake = np.array(
        [min(rts[i] + step2[k - i] for i in range(k + 1)) for k in range(n)]
    )
    p = replace(par, data_volume=load)
    queue = queueing_tail_ccdf(service_curve_stack(kind, p), load, t_max, dt).values
    failure = np.array(
        [
            min(
                rts[i] + step2[j] + queue[k - i - j]
                for i in range(k + 1)
                for j in range(k - i + 1)
            )
            for k in range(n)
        ]
    )
    return np.minimum(handshake, 1.0), np.minimum(failure, 1.0)


def test_handshake_tails_match_message_sequence():
    # distinct ttls, so that running CTS and RTR one after the other, or
    # dropping either, gives a different tail
    par = ProtocolParams(loss_prob=0.3, rts_ttl=0.05, cts_ttl=0.08, rtr_ttl=0.13)
    t_max, dt = 0.6, 0.01
    for kind in (ChannelKind.DIRECT, ChannelKind.RIS):
        hs_brute, fail_brute = _brute_handshake_and_failure(kind, 12.0, t_max, dt, par)
        hs = handshake_ccdf(kind, par, t_max, dt)
        np.testing.assert_allclose(hs.values, hs_brute, rtol=0.0, atol=1e-12)
        fail = failure_curve(kind, 12.0, t_max, par, grid_dt=dt)
        np.testing.assert_allclose(fail.values, fail_brute, rtol=0.0, atol=1e-12)
    assert handshake_ccdf(ChannelKind.CONTROL, par, t_max, dt) is None


def test_poisson_tail_matches_direct_sum():
    rng = np.random.default_rng(19)
    for _ in range(100):
        mean = float(rng.uniform(0.1, 40.0))
        thresh = float(rng.uniform(0.0, 30.0))
        got = poisson_delay_tail(mean, thresh)
        k = math.ceil(thresh + mean)
        if k <= 0:
            expect = 1.0
        else:
            # complementary CDF, summed until negligible
            expect = 1.0
            term = math.exp(-mean)
            acc = term
            for j in range(1, k):
                term *= mean / j
                acc += term
            expect = 1.0 - acc
        assert got == pytest.approx(expect, abs=1e-10)


def test_queueing_tail_is_one_before_service_starts():
    curve = LatencyRateCurve(rate=20.0, latency=0.6)
    tail = queueing_tail_ccdf(curve, arrival_rate=10.0, t_max=2.0, dt=0.005)
    t = np.arange(len(tail.values)) * 0.005
    assert np.all(tail.values[t <= 0.6] == 1.0)
    assert np.all(np.diff(tail.values) <= 1e-12), "tail must be non-increasing"
    assert tail.values[-1] < 1e-6


def test_retransmission_tail_values():
    tail = retransmission_ccdf(0.15, 0.08, 1.0, 0.005)
    # one mandatory attempt at t=0, one more chance per elapsed ttl
    assert tail.at(0.0) == pytest.approx(0.15, rel=1e-12)
    assert tail.at(0.05) == pytest.approx(0.15**2, rel=1e-12)
    assert tail.at(0.1) == pytest.approx(0.15**3, rel=1e-12)
    assert tail.at(0.9) <= 0.15**12


def test_min_plus_of_curves_is_closed_form():
    a = LatencyRateCurve(20.0, 0.3)
    b = LatencyRateCurve(40.0, 0.2)
    c = min_plus_convolve(a, b)
    assert c.rate == 20.0
    assert c.latency == pytest.approx(0.5, rel=1e-12)


def test_min_plus_of_tails_against_brute_force():
    dt, t_max = 0.01, 0.5
    n = int(round(t_max / dt)) + 1
    rng = np.random.default_rng(5)
    av = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    bv = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    a = Ccdf(t_max, dt, av)
    b = Ccdf(t_max, dt, bv)
    c = min_plus_convolve(a, b)
    for i in range(0, n, 7):
        brute = min(av[j] + bv[i - j] for j in range(i + 1))
        assert c.values[i] == pytest.approx(min(1.0, brute), abs=1e-12)


def test_min_plus_rejects_mismatched_grids():
    a = Ccdf(1.0, 0.01, np.ones(101))
    b = Ccdf(1.0, 0.02, np.ones(51))
    with pytest.raises(ValueError):
        min_plus_convolve(a, b)


def test_failure_curve_monotone_in_time_and_load():
    for kind in ChannelKind:
        c = failure_curve(kind, 10.0, 2.0, PAR)
        assert np.all(np.diff(c.values) <= 1e-12)
        lo = failure_probability(kind, 8.0, 1.5, PAR)
        hi = failure_probability(kind, 20.0, 1.5, PAR)
        assert hi >= lo - 1e-12
        print(f"{kind.value:8s}: p_fail(8 Mb)={lo:.4f}  p_fail(20 Mb)={hi:.4f}")


def test_control_failure_saturates_below_stack_latency():
    # a 30 Mb burst over 20 Mb/s cannot finish within 1.2 * 30/20 = 1.8 s
    p = failure_probability(ChannelKind.CONTROL, 30.0, 1.5, PAR)
    assert p == 1.0
    # and a tiny load within a generous budget essentially never fails
    assert failure_probability(ChannelKind.CONTROL, 1.0, 1.5, PAR) < 1e-8


def test_pinned_arrival_rate_decouples_queueing():
    pinned = ProtocolParams(arrival_rate=5.0)
    free = failure_probability(ChannelKind.CONTROL, 12.0, 1.5, PAR)
    fixed = failure_probability(ChannelKind.CONTROL, 12.0, 1.5, pinned)
    assert fixed <= free + 1e-12


def test_ccdf_at_rounds_to_grid_and_guards_range():
    c = Ccdf(1.0, 0.1, np.linspace(1.0, 0.0, 11))
    assert c.at(0.3) == pytest.approx(0.7)
    assert c.at(1.0) == 0.0
    assert c.at(0.55) in (c.values[5], c.values[6])
    with pytest.raises(ValueError):
        c.at(-5.0)
    with pytest.raises(ValueError):
        c.at(99.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(loss_prob=1.0)
    with pytest.raises(ValueError):
        ProtocolParams(omni_rate=0.0)
    with pytest.raises(ValueError):
        failure_curve(ChannelKind.RIS, -1.0, 2.0, PAR)
    with pytest.raises(ValueError):
        failure_curve(ChannelKind.RIS, 5.0, 2.0, PAR, grid_dt=0.5)


@pytest.mark.parametrize(
    "load, t_max, grid_dt",
    [
        (math.nan, 2.0, 0.005),
        (math.inf, 2.0, 0.005),
        (5.0, math.nan, 0.005),
        (5.0, math.inf, 0.005),
        (5.0, 2.0, 0.0),
        (5.0, 2.0, -0.005),
        (5.0, 2.0, math.nan),
    ],
)
def test_a_scan_needs_finite_inputs_and_a_positive_grid(load, t_max, grid_dt):
    """``uamsim delay-bounds`` checks its loads and grid with the same rule
    the curve applies, before it writes."""
    with pytest.raises(ValueError):
        check_scan(load, t_max, grid_dt)
    with pytest.raises(ValueError):
        failure_curve(ChannelKind.RIS, load, t_max, PAR, grid_dt)
