"""Layered-airspace geometry: configuration, fleet state, safety separations.

Every rule works on whole-fleet arrays; x offsets are taken around the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np


def nonfinite(settings) -> list[str]:
    """Names of the fields of a settings dataclass holding a NaN or infinite float."""
    names = []
    for f in fields(settings):
        value = getattr(settings, f.name)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            names.append(f.name)
    return names


def _constant(value) -> np.ndarray:
    """``value`` as a read-only float array; a float becomes a 0-d array,
    which a ufunc takes faster than a Python float."""
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


class OutOfRange(ValueError):
    """A value outside its range; ``param`` names the argument that held it."""

    def __init__(self, param: str, message: str) -> None:
        super().__init__(message)
        self.param = param


@dataclass(frozen=True)
class AirspaceConfig:
    """Static description of the layered corridor.

    Layers are indexed 0 (ground), 1 (low) and 2 (high), at altitudes
    ``layer_index * layer_spacing_m``.  Each layer has an expected cruise
    speed; higher layers must be faster.
    """

    layer_spacing_m: float = 100.0
    expected_speeds_mps: tuple[float, float, float] = (30.0, 45.0, 60.0)
    course_length_m: float = 2000.0
    max_speed_mps: float = 65.0
    max_accel_mps2: float = 5.0
    # braking rates used by the horizontal separation rule
    max_brake_mps2: float = 8.0
    comfort_brake_mps2: float = 4.0
    reaction_delay_s: float = 0.5
    vertical_separation_coeff: float = 0.5

    def __post_init__(self) -> None:
        if bad := nonfinite(self):
            raise ValueError(f"{', '.join(bad)} must be finite")
        v0, v1, v2 = self.expected_speeds_mps
        if not (0.0 < v0 < v1 < v2):
            raise ValueError("expected speeds must be positive and increasing")
        if self.layer_spacing_m <= 0.0:
            raise ValueError("layer spacing must be positive")
        if self.course_length_m <= 0.0:
            raise ValueError("course length must be positive")
        if self.max_speed_mps < v2:
            raise ValueError("max speed must cover the fastest layer")
        if self.max_brake_mps2 <= 0.0 or self.comfort_brake_mps2 <= 0.0:
            raise ValueError("brake rates must be positive")
        if self.max_brake_mps2 <= self.comfort_brake_mps2:
            raise ValueError("max brake rate must exceed the comfort rate")
        if self.max_accel_mps2 <= 0.0:
            raise ValueError("max acceleration must be positive")
        if self.reaction_delay_s < 0.0 or self.vertical_separation_coeff < 0.0:
            raise ValueError("reaction_delay_s and vertical_separation_coeff cannot be negative")

    def layer_altitude(self, layer: int) -> float:
        return layer * self.layer_spacing_m

    # The tick's constants, built on first use: the config never changes.

    @cached_property
    def speeds(self) -> np.ndarray:
        """The expected speeds, indexed by layer."""
        return _constant(self.expected_speeds_mps)

    @cached_property
    def course(self) -> np.ndarray:
        return _constant(self.course_length_m)

    @cached_property
    def spacing(self) -> np.ndarray:
        return _constant(self.layer_spacing_m)

    @cached_property
    def separation(self) -> tuple[np.ndarray, np.ndarray]:
        """``horizontal_safe_separation``'s coefficients of v^2 and of v."""
        big, small = self.max_brake_mps2, self.comfort_brake_mps2
        return _constant((big - small) / (2.0 * big * small)), _constant(self.reaction_delay_s)


class Fleet(NamedTuple):
    """One instant of the fleet in the vertical (x, h) plane; ``resident``
    marks aircraft not in the middle of a layer switch.  The fields after
    ``ids`` are derived by ``fleet_state`` only.  ``order`` is the one
    resident order: resident rows by (layer, x, id), layer l's ring being
    ``order[bounds[l]:bounds[l + 1]]``.  ``ring_pairs`` finds neighbours by
    x in the segments; sorted back to row order, a segment gives the served
    pair its ties to the lowest row.

    Each resident's preceding aircraft ``prec`` is the next of its segment,
    cyclically; ``ahead_x``/``ahead_h`` is the forward offset to it and
    ``front`` its norm, ``rear`` the gap to the aircraft behind.  The alone
    and non-residents get -1 and infinite gaps.  Their ``ahead_x`` is 0,
    which is not a gap: a lone resident's offset to itself, and it has no
    pair.  ``paired`` lists the residents that have a preceding aircraft, in
    ring order.  ``offset`` is each row's altitude above its layer's.
    ``conflicts``: row-pair codes (see ``pair_codes``) of every conflict:
    neighbours closer than the faster one's separation, and cross-layer pairs."""

    x: np.ndarray
    h: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    layer: np.ndarray
    resident: np.ndarray
    ids: np.ndarray
    speed: np.ndarray
    d_safe: np.ndarray
    offset: np.ndarray
    order: np.ndarray
    bounds: np.ndarray
    front: np.ndarray
    rear: np.ndarray
    prec: np.ndarray
    paired: np.ndarray
    ahead_x: np.ndarray
    ahead_h: np.ndarray
    conflicts: np.ndarray

    def segment(self, layer: int) -> np.ndarray:
        """Rows resident in ``layer``, in ring order (by x, then id)."""
        return self.order[self.bounds[layer] : self.bounds[layer + 1]]


def fleet_state(x, h, vx, vy, layer, resident, ids, cfg: AirspaceConfig) -> Fleet:
    """Bundle the fleet arrays and derive speeds, safe separations, layer
    offsets, the resident order, each ring's gaps and preceding aircraft, and
    all conflicts."""
    n = len(x)
    speed = np.hypot(vx, vy)
    d_safe = horizontal_safe_separation(speed, cfg)
    rows = resident.nonzero()[0]
    order = rows[np.lexsort((ids[rows], x[rows], layer[rows]))]
    lay = layer[order]
    bounds = lay.searchsorted(_LAYER_EDGES)
    # built in ring order, then scattered to rows: ring position k is followed
    # by k + 1, a segment's last by its first, so a layer's only resident by itself
    succ = np.arange(1, len(order) + 1)
    last = (succ == bounds[1:][lay]).nonzero()[0]
    first = bounds[lay[last]]
    succ[last] = first
    lone = last[first == last]
    nxt = order[succ]
    xo, ho = x[order], h[order]
    ring_x = (xo[succ] - xo) % cfg.course
    ring_h = ho[succ] - ho
    gap = np.hypot(ring_x, ring_h)
    ahead_x, ahead_h = np.zeros(n), np.zeros(n)
    prec, front, rear = np.empty(n, dtype=int), np.empty(n), np.empty(n)
    prec.fill(-1)
    front.fill(np.inf)
    rear.fill(np.inf)
    if len(lone):  # a layer's only resident has no gap
        gap[lone] = np.inf
    ahead_x[order], ahead_h[order], prec[order], front[order], rear[nxt] = ring_x, ring_h, nxt, gap, gap
    paired = order
    if len(lone):  # nor a preceding aircraft
        prec[order[lone]] = -1
        paired = np.delete(order, lone)
    # the faster aircraft has the larger separation
    ring_d = d_safe[order]
    close = (gap < np.maximum(ring_d, ring_d[succ])).nonzero()[0]
    fleet = Fleet(
        x, h, vx, vy, layer, resident, ids, speed, d_safe, h - layer * cfg.spacing,
        order, bounds, front, rear, prec, paired, ahead_x, ahead_h,
        pair_codes(order[close], nxt[close], n),
    )
    cross = cross_layer_conflicts(fleet, cfg)
    if len(cross):
        fleet = fleet._replace(conflicts=np.union1d(fleet.conflicts, cross))
    return fleet


def horizontal_safe_separation(speed: np.ndarray, cfg: AirspaceConfig) -> np.ndarray:
    """Minimum in-layer gap for aircraft moving at ``speed``.

    Combines the braking-distance difference between a maximal stop (rate B)
    and a comfortable stop (rate b) with the distance covered during the
    reaction delay:  (B - b) / (2 B b) * v^2 + v * t_delay.
    """
    # the least is 0 with no negative or NaN speed, the greatest finite with no infinite or NaN one
    least = np.minimum.reduce(speed, axis=None, initial=0.0)
    if not (least == 0.0 and np.maximum.reduce(speed, axis=None, initial=0.0) < math.inf):
        raise ValueError("speed must be finite and non-negative")
    quad, delay = cfg.separation
    return quad * speed * speed + delay * speed


def ring_offset(dx: np.ndarray, course: float) -> np.ndarray:
    """Map raw x differences onto the ring into [-course/2, course/2)."""
    v = np.asarray(dx + 0.5 * course, dtype=float)
    flat = v.reshape(-1)  # a view: a scalar's 0-d array is shifted in place too
    # v % course is v itself on [0, course), where most offsets land; the
    # float remainder is slow, so it runs on the others only, if any
    off = ((flat < 0.0) | (flat >= course)).nonzero()[0]
    if len(off):
        wrapped = flat[off] % course
        # the remainder of a tiny negative rounds up to the course itself
        wrapped[wrapped == course] = 0.0
        flat[off] = wrapped
    flat -= 0.5 * course
    return v[()]  # a scalar for a scalar


# Key offset of lap k (-1, 0, 1) of layer l, in courses: 4 l + k.
_LAP_SHIFT = np.array([-1.0, 0.0, 1.0, 3.0, 4.0, 5.0, 7.0, 8.0, 9.0])
# Searched for in a resident order's layers: layer l's ring starts at bounds[l].
_LAYER_EDGES = np.arange(4)


class Laps(NamedTuple):
    """The rings unrolled: each layer's segment three times over, so that a
    window round the ring is one slice of ``rows``.  Lap k of layer l holds
    keys x + (4 l + k) course, so ``keys`` ascends and layers never mix;
    ``sizes`` are the segment lengths."""

    rows: np.ndarray
    keys: np.ndarray
    sizes: np.ndarray
    course: float


def ring_laps(fleet: Fleet, course: float) -> Laps:
    """Unroll the fleet's rings for ``ring_pairs``."""
    sizes = fleet.bounds[1:] - fleet.bounds[:-1]
    rows = np.concatenate([fleet.segment(lay) for lay in range(3) for _ in range(3)])
    keys = fleet.x[rows] + (_LAP_SHIFT * course).repeat(sizes.repeat(3))
    return Laps(rows, keys, sizes, course)


def search_reach(reach: float, course: float) -> float:
    """``reach`` widened by a rounding slack far above the few ulps by which
    a searched bound, a ring gap and ``ring_offset`` can disagree: a window
    of this reach holds every resident with |ring_offset| <= reach, and when
    every ring gap of a layer exceeds it, no two of its residents are within
    ``reach`` of each other."""
    return reach + 1e-9 * (course + reach)


def ring_pairs(
    fleet: Fleet, laps: Laps, layer: int | np.ndarray, rows: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (k, j), k ascending: each resident j of ``layer`` (one
    for all queries, or one per query) whose x lies within ``reach`` of
    x[rows[k]] round the ring, appearing at most once per query.

    The window is widened to ``search_reach``, so it holds every resident
    with |ring_offset| <= reach; each caller applies its exact rule to the
    candidates.
    """
    course = laps.course
    # the middle lap and one more either side
    reach = min(search_reach(reach, course), course)
    at = fleet.x[rows] + 4.0 * course * np.asarray(layer)
    first = laps.keys.searchsorted(at - reach, "left")
    # a slice of sizes[layer] or more covers the whole ring: its first that
    # many entries hold each resident once
    count = np.minimum(laps.keys.searchsorted(at + reach, "right") - first, laps.sizes[layer])
    k = np.arange(len(rows)).repeat(count)
    return k, laps.rows[(first - count.cumsum() + count).repeat(count) + np.arange(len(k))]


def pair_codes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Sorted, distinct codes ``lo * n + hi`` of the row pairs (a[k], b[k]),
    where lo < hi are rows of an ``n``-aircraft fleet."""
    if len(a) == 0:  # most ticks have no conflict; skip the sort's overhead
        return a
    return np.unique(np.minimum(a, b) * n + np.maximum(a, b))


def cross_layer_conflicts(fleet: Fleet, cfg: AirspaceConfig) -> np.ndarray:
    """Converging resident pairs in different layers within two spacings.

    A pair conflicts when closer than coeff * (faster speed) * cos(gamma),
    gamma being the angle between the line of sight and the closing
    velocity; a receding or coincident pair never does.  Aircraft in the
    middle of a switch manoeuvre are not counted, exactly as they drop out of
    the same-layer ring: conflict accounting covers layer residents, and a
    switcher re-enters it at capture.  Returns row-pair codes.

    A hit needs |dh| <= dist < coeff * (faster speed).  Residents of two
    layers are at least spacing - 2 * offset apart in altitude, offset being
    the largest resident distance from its layer altitude, so when that is
    at least coeff times the fastest resident speed (``reach``) the rule is
    skipped; otherwise each layer pair tests it on its ``ring_pairs`` within
    ``reach``.  The skip needs no rounding slack.  With reach > 0 it needs
    offset < spacing / 2, where every h - layer altitude is exact
    (Sterbenz); rounding is monotone, so a pair's rounded |dh| is at least
    the rounded spacing - 2 * offset, and its rounded separation at most
    the rounded ``reach``.  With reach 0 no pair can hit, nor with the
    residents in one layer.
    """
    coeff, course, spacing = cfg.vertical_separation_coeff, cfg.course_length_m, cfg.layer_spacing_m
    x, h, vx, vy, speed = fleet.x, fleet.h, fleet.vx, fleet.vy, fleet.speed
    rows = fleet.order
    offset = np.maximum.reduce(np.abs(fleet.offset[rows]), initial=0.0)
    reach = coeff * np.maximum.reduce(speed[rows], initial=0.0)
    if spacing - 2.0 * offset >= reach or (fleet.bounds[1:] > fleet.bounds[:-1]).sum() < 2:
        return np.empty(0, dtype=int)
    rows_a, rows_b = [], []
    laps = ring_laps(fleet, course)
    for la, lb in ((0, 1), (1, 2), (0, 2)):
        group = fleet.segment(la)
        k, b = ring_pairs(fleet, laps, lb, group, reach)
        a = group[k]
        sx = ring_offset(x[a] - x[b], course)
        sh = h[a] - h[b]
        dist = np.hypot(sx, sh)
        rvx, rvy = vx[a] - vx[b], vy[a] - vy[b]
        rnorm = np.hypot(rvx, rvy)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosg = -(sx * rvx + sh * rvy) / (dist * rnorm)
        cosg = np.where((rnorm == 0.0) | (dist == 0.0), 0.0, cosg)
        cosg = cosg.clip(0.0, 1.0)
        vsep = coeff * np.maximum(speed[a], speed[b]) * cosg
        hit = (dist < vsep) & (dist > 0.0) & (np.abs(sh) <= 2.0 * cfg.layer_spacing_m + 1e-9)
        rows_a.append(a[hit])
        rows_b.append(b[hit])
    return pair_codes(np.concatenate(rows_a), np.concatenate(rows_b), len(fleet.x))
