"""Delay-bound machinery: service curves, tails, min-plus composition."""

import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uamsim.netcalc import (
    BLOCK,
    Ccdf,
    ChannelKind,
    LatencyRateCurve,
    ProtocolParams,
    _handshake_head,
    check_scan,
    failure_curve,
    failure_probability,
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


@pytest.mark.parametrize(
    "rate, latency", [(math.inf, 0.5), (math.nan, 0.5), (0.0, 0.5), (20.0, -0.1), (20.0, math.inf)]
)
def test_latency_rate_curve_rejects_a_non_finite_or_empty_server(rate, latency):
    """A handshake step is a pure delay held as a latency, never as an
    infinite-rate curve: evaluating one would give inf * 0 = NaN."""
    with pytest.raises(ValueError):
        LatencyRateCurve(rate, latency)


def test_stack_latencies():
    # data volume 10 Mb, access weight 1.2; CTS and RTR form one step
    ctrl = service_curve_stack(ChannelKind.CONTROL, PAR, 10.0)
    assert ctrl.latency == pytest.approx(1.2 * 10.0 / 20.0, rel=1e-12)  # 0.6
    direct = service_curve_stack(ChannelKind.DIRECT, PAR, 10.0)
    assert direct.latency == pytest.approx(1.2 * (3 / 20 + 3 / 20 + 10 / 40), rel=1e-12)
    ris = service_curve_stack(ChannelKind.RIS, PAR, 10.0)
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
    ctrl = service_curve_stack(ChannelKind.CONTROL, par, 10.0)
    direct = service_curve_stack(ChannelKind.DIRECT, par, 10.0)
    ris = service_curve_stack(ChannelKind.RIS, par, 10.0)
    assert (ctrl.rate, direct.rate, ris.rate) == (20.0, 50.0, 10.0)
    assert direct.latency == pytest.approx(1.2 * (3 / 20 + 2 / 20 + 10 / 50), rel=1e-12)
    assert ris.latency == pytest.approx(
        1.2 * (3 / 20 + 4 / 20 + 10 / 80 + 10 / 10), rel=1e-12
    )


def _brute_failure(kind, load, t_max, dt, par):
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
    queue = queueing_tail_ccdf(service_curve_stack(kind, par, load), load, t)
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
    return np.minimum(failure, 1.0)


def test_handshake_tails_match_message_sequence():
    # distinct ttls, so that running CTS and RTR one after the other, or
    # dropping either, gives a different tail
    par = ProtocolParams(loss_prob=0.3, rts_ttl=0.05, cts_ttl=0.08, rtr_ttl=0.13)
    t_max, dt = 0.6, 0.01
    for kind in (ChannelKind.DIRECT, ChannelKind.RIS):
        fail = failure_curve(kind, 12.0, t_max, par, grid_dt=dt)
        fail_brute = _brute_failure(kind, 12.0, t_max, dt, par)
        np.testing.assert_allclose(fail.values, fail_brute, rtol=0.0, atol=1e-12)
    # Control has no handshake: its failure curve is its queueing tail
    t = np.arange(int(round(t_max / dt)) + 1) * dt
    queue = queueing_tail_ccdf(service_curve_stack(ChannelKind.CONTROL, par, 12.0), 12.0, t)
    control = failure_curve(ChannelKind.CONTROL, 12.0, t_max, par, grid_dt=dt)
    np.testing.assert_array_equal(control.values, queue)


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
    t = np.arange(401) * 0.005
    tail = queueing_tail_ccdf(curve, arrival_rate=10.0, t=t)
    assert np.all(tail[t <= 0.6] == 1.0)
    assert np.all(np.diff(tail) <= 1e-12), "tail must be non-increasing"
    assert tail[-1] < 1e-6


def test_retransmission_tail_values():
    t = np.array([0.0, 0.05, 0.1, 0.9])
    tail = retransmission_ccdf(0.15, 0.08, t)
    # one mandatory attempt at t=0, one more chance per elapsed ttl
    assert tail[0] == pytest.approx(0.15, rel=1e-12)
    assert tail[1] == pytest.approx(0.15**2, rel=1e-12)
    assert tail[2] == pytest.approx(0.15**3, rel=1e-12)
    assert tail[3] <= 0.15**12


@st.composite
def _tail_tables(draw):
    """Two non-increasing tables in [0, 1] on one grid of 1 to 60 points."""
    n = draw(st.integers(1, 60))
    table = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    return [np.sort(draw(table))[::-1] for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(_tail_tables())
def test_min_plus_of_tails_against_brute_force(tables):
    av, bv = tables
    c = min_plus_convolve(av, bv)
    assert c.shape == av.shape
    for i in range(len(av)):
        brute = min(av[j] + bv[i - j] for j in range(i + 1))
        assert c[i] == min(1.0, brute)


def _min_plus_reference(a, b):
    """The per-point loop the window kernel replaced: one minimum per grid point."""
    out = np.empty(len(a))
    for i in range(len(a)):
        out[i] = np.min(a[: i + 1] + b[i::-1])
    return np.clip(out, 0.0, 1.0)


@st.composite
def _unsorted_tables(draw):
    """Two arbitrary tables in [0, 1] on one grid of 1 to 80 points."""
    n = draw(st.integers(1, 80))
    table = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    return [np.array(draw(table)) for _ in range(2)]


@settings(max_examples=300, deadline=None)
@given(_unsorted_tables())
def test_min_plus_matches_the_per_point_loop(tables):
    """The window kernel assumes no monotonicity and gives the loop's bits."""
    assert np.array_equal(min_plus_convolve(*tables), _min_plus_reference(*tables))


def test_min_plus_matches_the_per_point_loop_across_row_blocks():
    # 1000 points: BLOCK // 1000 rows per block, so several blocks
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0.0, 1.0, 1000), rng.uniform(0.0, 1.0, 1000)
    assert BLOCK // 1000 < 1000
    assert np.array_equal(min_plus_convolve(a, b), _min_plus_reference(a, b))


@st.composite
def _step_tails(draw):
    """Two step tables of 1 to 400 points: a few values in runs of random length.

    b's values go down, so the convolution reads only a's run starts.  a's
    go down or come in the order drawn, so a value may repeat in runs that
    are apart.
    """
    n = draw(st.integers(1, 400))
    values = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)

    def steps(levels):
        cuts = sorted(draw(st.lists(st.integers(1, n), max_size=len(levels) - 1)))
        runs = np.diff([0, *cuts, n])
        return np.repeat(levels[: len(runs)], runs)

    b = steps(np.sort(draw(values))[::-1])
    levels = np.array(draw(values))
    a = steps(levels if draw(st.booleans()) else np.sort(levels)[::-1])
    return a, b


@settings(max_examples=300, deadline=None)
@given(_step_tails())
def test_min_plus_of_step_tails_matches_the_per_point_loop(tables):
    """Reading a's run starts alone gives the loop's bits."""
    a, b = tables
    assert min_plus_convolve(a, b).tobytes() == _min_plus_reference(a, b).tobytes()


@pytest.mark.parametrize("nan_in", ["a", "b"])
def test_min_plus_rejects_nan(nan_in):
    tails = {"a": np.linspace(1.0, 0.0, 5), "b": np.linspace(1.0, 0.0, 5)}
    tails[nan_in][2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        min_plus_convolve(tails["a"], tails["b"])


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("bad_in", ["a", "b"])
def test_min_plus_rejects_an_infinity(bad_in, value):
    """A -inf in a after index 0 once met the +inf padding before its row's
    column and gave NaN there."""
    tails = {"a": np.array([0.5, 0.25]), "b": np.array([0.5, 0.25])}
    tails[bad_in][1] = value
    with pytest.raises(ValueError, match="infinity"):
        min_plus_convolve(tails["a"], tails["b"])


def test_a_long_grid_keeps_the_convolution_in_bounded_memory():
    """12 001 points: an unblocked (n, n) window would peak above 1 GB."""
    tracemalloc.start()
    try:
        curve = failure_curve(ChannelKind.RIS, 20.0, 60.0, PAR)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curve.values) == 12001
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "a, b",
    [
        (np.ones(3), np.ones(5)),
        (np.ones(5), np.ones(3)),
        (np.ones((2, 2)), np.ones((2, 2))),
        (np.ones(0), np.ones(0)),
    ],
    ids=["shorter-first", "longer-first", "two-dimensional", "empty"],
)
def test_min_plus_rejects_tables_off_one_grid(a, b):
    with pytest.raises(ValueError, match="non-empty 1-D tables on one grid"):
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


# (params, t_max, grid_dt) pairs that differ in one thing the handshake
# head reads, or in the pinned arrival rate, which it does not
_ONE_APART = {
    "rts-ttl": ((PAR, 1.5, 0.005), (replace(PAR, rts_ttl=0.05), 1.5, 0.005)),
    "cts-ttl": ((PAR, 1.5, 0.005), (replace(PAR, cts_ttl=0.05), 1.5, 0.005)),
    "rtr-ttl": ((PAR, 1.5, 0.005), (replace(PAR, rtr_ttl=0.13), 1.5, 0.005)),
    "loss": ((PAR, 1.5, 0.005), (replace(PAR, loss_prob=0.3), 1.5, 0.005)),
    "loss-signed-zero": (
        (replace(PAR, loss_prob=0.0), 1.5, 0.005), (replace(PAR, loss_prob=-0.0), 1.5, 0.005)
    ),
    "grid-length": ((PAR, 1.5, 0.005), (PAR, 2.0, 0.005)),
    "grid-step": ((PAR, 1.5, 0.005), (PAR, 3.0, 0.01)),  # 301 points each
    "arrival-rate": ((PAR, 1.5, 0.005), (replace(PAR, arrival_rate=5.0), 1.5, 0.005)),
}


@pytest.mark.parametrize("first, second", _ONE_APART.values(), ids=_ONE_APART.keys())
def test_a_kept_head_leaves_the_curve_unchanged(first, second):
    """Every curve, computed with no head kept and then in a warm sequence
    where the second case follows the first at each load, has the same
    bytes: a key that missed what told the two apart would hand the second
    the first's head."""
    runs = [
        (kind, load, *case)
        for kind in ChannelKind
        for load in (12.0, 40.0)
        for case in (first, second)
    ]

    def curve(kind, load, par, t_max, grid_dt):
        return failure_curve(kind, load, t_max, par, grid_dt).values.tobytes()

    cold = []
    for run in runs:
        _handshake_head.cache_clear()
        cold.append(curve(*run))
    _handshake_head.cache_clear()
    assert [curve(*run) for run in runs] == cold


def test_the_kept_head_is_the_read_only_fold_of_the_step_tails():
    """The curve is the left fold over the step tails and the queueing tail,
    bit for bit, and the head every caller shares cannot be written."""
    par = ProtocolParams(loss_prob=0.3, rts_ttl=0.05, cts_ttl=0.08, rtr_ttl=0.13)
    t = np.arange(121) * 0.01
    ttls = {
        ChannelKind.DIRECT: ((par.rts_ttl,), (par.cts_ttl,)),
        ChannelKind.RIS: ((par.rts_ttl,), (par.cts_ttl, par.rtr_ttl)),
    }
    for kind, steps in ttls.items():
        step_tails = [
            np.minimum(sum(retransmission_ccdf(par.loss_prob, ttl, t) for ttl in step), 1.0)
            for step in steps
        ]
        queue = queueing_tail_ccdf(service_curve_stack(kind, par, 9.0), 9.0, t)
        fold = reduce(min_plus_convolve, [*step_tails, queue])
        assert failure_curve(kind, 9.0, 1.2, par, 0.01).values.tobytes() == fold.tobytes()
        head = _handshake_head(steps, par.loss_prob, len(t), 0.01)
        assert not head.flags.writeable
        with pytest.raises(ValueError):
            head[0] = 0.0
    assert _handshake_head((), par.loss_prob, len(t), 0.01) is None


def test_ccdf_at_rounds_to_grid_and_guards_range():
    c = Ccdf(0.1, np.linspace(1.0, 0.0, 11))
    assert c.at(0.3) == pytest.approx(0.7)
    assert c.at(1.0) == 0.0
    assert c.at(0.55) in (c.values[5], c.values[6])
    with pytest.raises(ValueError):
        c.at(-5.0)
    with pytest.raises(ValueError):
        c.at(99.0)
    with pytest.raises(ValueError):
        Ccdf(0.1, np.array([np.nan, 0.5]))


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(loss_prob=1.0)
    with pytest.raises(ValueError):
        ProtocolParams(omni_rate=0.0)
    with pytest.raises(ValueError, match="arrival rate cannot be negative"):
        ProtocolParams(arrival_rate=-1.0)
    with pytest.raises(ValueError):
        failure_curve(ChannelKind.RIS, -1.0, 2.0, PAR)
    with pytest.raises(ValueError):
        failure_curve(ChannelKind.RIS, 5.0, 2.0, PAR, grid_dt=0.5)


def test_no_arrivals_fail_only_before_the_stack_latency():
    """A zero arrival rate is valid: with nothing queued, Control's curve is
    1 up to the stack latency and 0 after it."""
    par = replace(PAR, arrival_rate=0.0)
    curve = failure_curve(ChannelKind.CONTROL, 10.0, 2.0, par)
    t = np.arange(len(curve.values)) * curve.dt
    latency = service_curve_stack(ChannelKind.CONTROL, par, 10.0).latency
    np.testing.assert_array_equal(curve.values, np.where(t > latency + 1e-15, 0.0, 1.0))


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
