"""Layered-airspace geometry: configuration, fleet state, safety separations.

Every rule works on whole-fleet arrays; x offsets are taken around the ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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

    def layer_altitude(self, layer: int) -> float:
        return layer * self.layer_spacing_m


class Fleet(NamedTuple):
    """One instant of the fleet in the vertical (x, h) plane; ``resident``
    marks aircraft not in the middle of a layer switch."""

    x: np.ndarray
    h: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    layer: np.ndarray
    resident: np.ndarray
    ids: np.ndarray
    speed: np.ndarray
    d_safe: np.ndarray


def fleet_state(x, h, vx, vy, layer, resident, ids, cfg: AirspaceConfig) -> Fleet:
    """Bundle the fleet arrays and derive speeds and safe separations."""
    speed = np.hypot(vx, vy)
    return Fleet(x, h, vx, vy, layer, resident, ids, speed, horizontal_safe_separation(speed, cfg))


def horizontal_safe_separation(speed: np.ndarray, cfg: AirspaceConfig) -> np.ndarray:
    """Minimum in-layer gap for aircraft moving at ``speed``.

    Combines the braking-distance difference between a maximal stop (rate B)
    and a comfortable stop (rate b) with the distance covered during the
    reaction delay:  (B - b) / (2 B b) * v^2 + v * t_delay.
    """
    if not np.all(np.isfinite(speed) & (speed >= 0.0)):
        raise ValueError("speed must be finite and non-negative")
    big = cfg.max_brake_mps2
    small = cfg.comfort_brake_mps2
    quad = (big - small) / (2.0 * big * small)
    return quad * speed * speed + cfg.reaction_delay_s * speed


def ring_offset(dx: np.ndarray, course: float) -> np.ndarray:
    """Map raw x differences onto the ring into [-course/2, course/2)."""
    return (dx + 0.5 * course) % course - 0.5 * course


def layer_residents(fleet: Fleet, layer: int) -> np.ndarray:
    """Indices of the aircraft resident in ``layer``."""
    return np.where(fleet.resident & (fleet.layer == layer))[0]


def pair_codes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Sorted, distinct codes ``lo * n + hi`` of the row pairs (a[k], b[k]),
    where lo < hi are rows of an ``n``-aircraft fleet."""
    if len(a) == 0:  # most ticks have no conflict; skip the sort's overhead
        return a
    return np.unique(np.minimum(a, b) * n + np.maximum(a, b))


class Ring(NamedTuple):
    """Each resident's cyclic neighbours inside its layer.

    ``ahead_x``/``ahead_h`` is the forward offset to the preceding aircraft
    ``prec`` and ``front`` its norm; the alone and non-residents get -1 and
    infinite gaps.  ``conflicts``: row-pair codes (see ``pair_codes``) of
    neighbours closer than the faster one's separation.
    """

    front: np.ndarray
    rear: np.ndarray
    prec: np.ndarray
    ahead_x: np.ndarray
    ahead_h: np.ndarray
    conflicts: np.ndarray


def ring_neighbours(fleet: Fleet, cfg: AirspaceConfig) -> Ring:
    """Ring gaps, preceding aircraft and same-layer conflicts of the residents."""
    n = len(fleet.x)
    front, rear = np.full(n, np.inf), np.full(n, np.inf)
    prec = np.full(n, -1, dtype=int)
    ahead_x, ahead_h = np.zeros(n), np.zeros(n)
    close = np.zeros(n, dtype=bool)
    for lay in (0, 1, 2):
        members = layer_residents(fleet, lay)
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
        # the faster aircraft has the larger separation
        close[order] = gap < np.maximum(fleet.d_safe[order], fleet.d_safe[nxt])
    rows = np.flatnonzero(close)
    return Ring(front, rear, prec, ahead_x, ahead_h, pair_codes(rows, prec[rows], n))


def cross_layer_conflicts(fleet: Fleet, cfg: AirspaceConfig) -> np.ndarray:
    """Converging resident pairs in different layers within two spacings.

    A pair conflicts when closer than coeff * (faster speed) * cos(gamma),
    gamma being the angle between the line of sight and the closing
    velocity; a receding or coincident pair never does.  Aircraft in the
    middle of a switch manoeuvre are not counted, exactly as they drop out of
    the same-layer ring: conflict accounting covers layer residents, and a
    switcher re-enters it at capture.  Returns row-pair codes.
    """
    rows_a, rows_b = [], []
    coeff = cfg.vertical_separation_coeff
    groups = {lay: layer_residents(fleet, lay) for lay in (0, 1, 2)}
    x, h, vx, vy, speed = fleet.x, fleet.h, fleet.vx, fleet.vy, fleet.speed
    for la, lb in ((0, 1), (1, 2), (0, 2)):
        ga, gb = groups[la], groups[lb]
        sx = ring_offset(x[ga][:, None] - x[gb][None, :], cfg.course_length_m)
        sh = h[ga][:, None] - h[gb][None, :]
        dist = np.hypot(sx, sh)
        rvx = vx[ga][:, None] - vx[gb][None, :]
        rvy = vy[ga][:, None] - vy[gb][None, :]
        rnorm = np.hypot(rvx, rvy)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosg = -(sx * rvx + sh * rvy) / (dist * rnorm)
        cosg = np.where((rnorm == 0.0) | (dist == 0.0), 0.0, cosg)
        cosg = np.clip(cosg, 0.0, 1.0)
        vsep = coeff * np.maximum(speed[ga][:, None], speed[gb][None, :]) * cosg
        hit = (
            (dist < vsep)
            & (dist > 0.0)
            & (np.abs(sh) <= 2.0 * cfg.layer_spacing_m + 1e-9)
        )
        r, c = np.nonzero(hit)
        rows_a.append(ga[r])
        rows_b.append(gb[c])
    return pair_codes(np.concatenate(rows_a), np.concatenate(rows_b), len(fleet.x))
