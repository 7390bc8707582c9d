"""Delay-failure bounds for the three transmission fashions.

Service is modelled with latency-rate curves beta(t) = r * (t - T)+.  A
fashion is a cascade of servers, composed by the min-plus rule for
latency-rate servers in series (Le Boudec & Thiran, *Network Calculus*):
the rates take their minimum and the latencies add.

* **Rate.**  Only the hops the data crosses set the rate: the omnidirectional
  channel for Control, the directional link for Direct, and the surface's
  incoming and outgoing hops for Ris, so min(in, out).  The handshake
  messages never carry data; each is a pure delay, so only its latency
  enters the stack and it cannot be the bottleneck.
* **Latency.**  Each handshake step adds zeta * volume / omni_rate of its
  largest message; the data adds zeta * load / rate once per data hop
  (twice for Ris, into and out of the surface), the load being the
  transfer's data volume in Mb.
* **Message sequence.**  Control sends the data alone.  Direct: RTS, then
  CTS, then data.  Ris: RTS, then CTS and RTR together, then data.  The
  base station answers the RTS on the broadcast control plane, and one
  omnidirectional transmission reaches both the transmitting aircraft (CTS)
  and the surface controller (RTR); so the two run concurrently, not one
  after the other.  The step ends when both are delivered: it adds the
  latency of the larger message, and its retransmission tail is the tail
  of the later completion, P{max > t} <= P{T_cts > t} + P{T_rtr > t}, the
  union bound, which like the min-plus split assumes no independence.

Arrivals are Poisson in unit-size packets.  A tail is a plain array on the
one time grid ``failure_curve`` builds.  The probability that the delay of a
transfer exceeds a budget t is the left fold of ``min_plus_convolve`` over
the handshake steps' retransmission tails and then the queueing tail: one
split of the budget per handshake step, none for Control.  Every tail is
non-increasing, and the fold's running tail, each convolution's first table,
holds long runs of equal values, since a retransmission tail steps once per
ttl; so each convolution reads only the splits at the first index of a run,
with the same bits as reading every split.

Only the queueing tail depends on the load.  The fold of the step tails,
the handshake head, reads nothing but each step's ttls, the loss
probability and the grid, so it is computed once per such key and kept
(``_handshake_head``); a scan over loads at one fashion, protocol and grid
convolves each curve's queueing tail with the kept head.  That is the left
fold's last step on the same tables, so the curve's bits are the fold's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .airspace import OutOfRange, nonfinite


# float64 elements in one block of the convolution's sums: 1 MB
BLOCK = 1 << 17


class ChannelKind(Enum):
    CONTROL = "Control"
    DIRECT = "Direct"
    RIS = "Ris"


@dataclass(frozen=True)
class ProtocolParams:
    """Rates (Mb/s), message volumes (Mb) and handshake behaviour."""

    omni_rate: float = 20.0
    direct_rate: float = 40.0
    ris_rate_in: float = 100.0
    ris_rate_out: float = 100.0
    rts_volume: float = 3.0
    cts_volume: float = 3.0
    rtr_volume: float = 3.0
    access_weight: float = 1.2
    loss_prob: float = 0.15
    rts_ttl: float = 0.08
    cts_ttl: float = 0.08
    rtr_ttl: float = 0.08
    arrival_rate: float | None = None  # packets per second; None: match the load

    def __post_init__(self) -> None:
        if bad := nonfinite(self):
            raise ValueError(f"{', '.join(bad)} must be finite")
        if min(self.omni_rate, self.direct_rate, self.ris_rate_in, self.ris_rate_out) <= 0.0:
            raise ValueError("rates must be positive")
        if min(self.rts_volume, self.cts_volume, self.rtr_volume) < 0.0:
            raise ValueError("message volumes cannot be negative")
        if self.arrival_rate is not None and self.arrival_rate < 0.0:
            raise ValueError("arrival rate cannot be negative")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss probability must lie in [0, 1)")
        if min(self.rts_ttl, self.cts_ttl, self.rtr_ttl) <= 0.0:
            raise ValueError("retransmission ttls must be positive")
        if self.access_weight <= 0.0:
            raise ValueError("access weight must be positive")


@dataclass(frozen=True)
class LatencyRateCurve:
    """Service curve beta(t) = rate * (t - latency)+ ."""

    rate: float
    latency: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rate < math.inf and 0.0 <= self.latency < math.inf):
            raise ValueError("rate must be positive and latency non-negative, both finite")

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.rate * np.maximum(np.asarray(t, dtype=float) - self.latency, 0.0)


@dataclass(frozen=True)
class Ccdf:
    """Tail probability tabulated on the uniform grid 0, dt, 2 dt, ..."""

    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if not np.all((v >= -1e-12) & (v <= 1.0 + 1e-12)):  # NaN fails too
            raise ValueError("tail probabilities must lie in [0, 1]")
        object.__setattr__(self, "values", np.clip(v, 0.0, 1.0))

    def at(self, t: float) -> float:
        idx = int(round(t / self.dt))
        if idx < 0 or idx >= len(self.values):
            raise ValueError("time outside the tabulated grid")
        return float(self.values[idx])


def min_plus_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus convolution of two tail tables on one grid.

    out[i] = min over j <= i of a[j] + b[i - j]: the infimum over every
    split of the budget between the two stages, clamped back into [0, 1].
    Row j of the sums holds a[j] + b[i - j] at column i, and +inf before
    column j, so each column's minimum sees the same sums as that
    definition.  Row j's b part is the slice of ``concatenate((full(n, inf),
    b))`` that starts at n - j.

    When b is non-increasing, only the rows j that start a run of equal a
    values are read.  Over a run a[s] = ... = a[e], the split j <= i with
    the least b[i - j] is j = s, and rounding is monotone, so a[s] + b[i - s]
    is the run's least sum, to the bit.  Any other b reads every row.
    Columns go in blocks of at most ``BLOCK`` sums, so the temporaries stay
    bounded whatever the grid length.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size == 0:
        raise ValueError("tails must be non-empty 1-D tables on one grid")
    # a NaN or an infinity is no probability: reject it here, not in whatever
    # reads the result (a -inf would meet the +inf before its row's column)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("tails cannot hold NaN or an infinity")
    n = len(a)
    if (b[1:] <= b[:-1]).all():
        js = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    else:
        js = np.arange(n)
    padded = np.concatenate((np.full(n, np.inf), b))
    cols = max(1, BLOCK // len(js))
    out = np.empty(n)
    for start in range(0, n, cols):
        stop = min(start + cols, n)
        # rows past the block's last column hold only +inf there
        rows = js[: js.searchsorted(stop)]
        sums = padded[(n + start - rows)[:, None] + np.arange(stop - start)]
        sums += a[rows, None]
        np.minimum.reduce(sums, axis=0, out=out[start:stop])
    return np.clip(out, 0.0, 1.0, out=out)


def poisson_delay_tail(
    mean_arrivals: np.ndarray | float, threshold: np.ndarray | float
) -> np.ndarray:
    """P{N >= ceil(threshold + mean)} for N ~ Poisson(mean), elementwise.

    The regularized lower incomplete gamma gives the upper tail exactly;
    a start index at or below zero covers the whole distribution.
    """
    mean = np.asarray(mean_arrivals, dtype=float)
    if np.any(mean < 0.0):
        raise ValueError("mean arrival count cannot be negative")
    # imported here: it adds 0.3 s and 25 MB to every run that never needs it
    from scipy.special import gammainc

    start = np.ceil(threshold + mean)
    return np.where(
        start <= 0, 1.0, np.where(mean == 0.0, 0.0, gammainc(np.maximum(start, 1), mean))
    )


def retransmission_ccdf(loss_prob: float, ttl: float, t: np.ndarray) -> np.ndarray:
    """Tail of the handshake completion time under per-ttl retries, at times t.

    P{T > t} = loss^ceil(t/ttl + 1): one mandatory attempt plus one retry
    per elapsed ttl.
    """
    if not 0.0 <= loss_prob < 1.0:
        raise ValueError("loss probability must lie in [0, 1)")
    if ttl <= 0.0:
        raise ValueError("ttl must be positive")
    return np.power(loss_prob, np.ceil(t / ttl + 1.0).astype(int))


class Message(NamedTuple):
    """One handshake message: its volume (Mb) and retransmission ttl (s)."""

    volume: float
    ttl: float


def _fashion(
    kind: ChannelKind, params: ProtocolParams
) -> tuple[tuple[tuple[Message, ...], ...], tuple[float, ...]]:
    """Handshake steps and data-hop rates (Mb/s) of one fashion, in order.

    The steps run in series and a step's messages run together.  Control
    has no handshake; Direct sends RTS, then CTS; Ris sends RTS, then CTS
    and RTR together on the broadcast control plane.
    """
    rts = Message(params.rts_volume, params.rts_ttl)
    cts = Message(params.cts_volume, params.cts_ttl)
    if kind is ChannelKind.CONTROL:
        return (), (params.omni_rate,)
    if kind is ChannelKind.DIRECT:
        return ((rts,), (cts,)), (params.direct_rate,)
    if kind is ChannelKind.RIS:
        rtr = Message(params.rtr_volume, params.rtr_ttl)
        return ((rts,), (cts, rtr)), (params.ris_rate_in, params.ris_rate_out)
    raise ValueError(f"unknown channel kind {kind!r}")


def service_curve_stack(
    kind: ChannelKind, params: ProtocolParams, data_volume: float
) -> LatencyRateCurve:
    """Cascaded service curve of one fashion carrying ``data_volume`` Mb.

    Each handshake step is a pure delay of zeta * (largest message volume) /
    omni_rate; each data hop is a server of its own rate with latency
    zeta * data_volume / rate.  Their series (the min-plus rule) has the
    rate of the slowest data hop and the summed latency of every step and
    hop.
    """
    steps, rates = _fashion(kind, params)
    z = params.access_weight
    latencies = [z * max(m.volume for m in step) / params.omni_rate for step in steps]
    latencies += [z * data_volume / r for r in rates]
    return LatencyRateCurve(min(rates), sum(latencies))


def queueing_tail_ccdf(
    curve: LatencyRateCurve, arrival_rate: float, t: np.ndarray
) -> np.ndarray:
    """Delay tail of the queueing stage alone, at the grid times t.

    Up to the stack latency no service has happened, so the tail is 1.  Past
    it, the point is P{N(t) >= ceil(beta(t) + lambda t)}, ``poisson_delay_tail``
    of the Poisson count N(t) of mean lambda t = ``arrival_rate * t`` against
    the accumulated service beta(t) = ``curve(t)``: the count must pass the
    service by its own mean.
    """
    values = np.ones(len(t))
    served = t > curve.latency + 1e-15
    ts = t[served]
    values[served] = poisson_delay_tail(arrival_rate * ts, curve(ts))
    # Each point bounds the delay tail on its own; the tail itself is
    # non-increasing, so the running minimum is a tighter valid bound and
    # removes the sawtooth the integer threshold leaves between jumps.
    return np.minimum.accumulate(values)


def check_scan(load: float, t_max: float, grid_dt: float) -> None:
    """Reject a load, budget or grid step that ``failure_curve`` cannot tabulate."""
    if not 0.0 <= load < math.inf:
        raise OutOfRange("load", "load must be finite and non-negative")
    if not 0.0 < t_max < math.inf:
        raise OutOfRange("t_max", "time budget must be positive and finite")
    if not 0.0 < grid_dt <= t_max / 10.0:
        raise OutOfRange("grid_dt", "grid step must be positive and at most a tenth of the budget")


# a scan over loads reads two heads, Direct's and Ris's; four leave room for
# a second protocol or grid, and bound what the cache holds on a long grid
@lru_cache(maxsize=4)
def _handshake_head(
    ttls: tuple[tuple[float, ...], ...], loss_prob: float, n: int, grid_dt: float
) -> np.ndarray | None:
    """Left fold of the handshake steps' tails on the n-point grid of step
    grid_dt, or None when there is no step.

    ``ttls`` holds each step's message ttls, in order; a step's tail is the
    union bound over its messages, clamped to 1.  The result is read-only,
    as every caller with the same key shares it.
    """
    t = np.arange(n) * grid_dt
    step_tails = [
        np.minimum(sum(retransmission_ccdf(loss_prob, ttl, t) for ttl in step), 1.0)
        for step in ttls
    ]
    if not step_tails:
        return None
    head = reduce(min_plus_convolve, step_tails)
    head.flags.writeable = False
    return head


def failure_curve(
    kind: ChannelKind,
    load: float,
    t_max: float,
    params: ProtocolParams,
    grid_dt: float = 0.005,
) -> Ccdf:
    """Delay-failure tail of a transfer of ``load`` Mb, tabulated to t_max.

    ``load`` sets the data volume of the stack and, unless the params pin an
    arrival rate, the Poisson intensity over a one-second window.  Each
    handshake step's tail is the union bound over its messages, clamped to
    1; the steps and the queueing stage split the budget by one left fold
    of min-plus convolutions, so Control's curve is its queueing tail.

    The steps' part of the fold does not depend on the load: it is kept
    per (each step's ttls, loss_prob, point count, grid_dt), the whole of
    what it reads, and this call convolves the kept head with the queueing
    tail, the fold's last step.
    """
    check_scan(load, t_max, grid_dt)
    lam = params.arrival_rate if params.arrival_rate is not None else load
    n = int(round(t_max / grid_dt)) + 1
    t = np.arange(n) * grid_dt
    queue_tail = queueing_tail_ccdf(service_curve_stack(kind, params, load), lam, t)
    ttls = tuple(tuple(m.ttl for m in step) for step in _fashion(kind, params)[0])
    head = _handshake_head(ttls, params.loss_prob, n, grid_dt)
    return Ccdf(grid_dt, queue_tail if head is None else min_plus_convolve(head, queue_tail))
