"""Composite potential fields that shape per-aircraft acceleration.

Five quadratic fields combine: attraction toward the preceding aircraft's
comfortable gap, a speed stabilizer around the layer's expected velocity,
short-range repulsion from intruding neighbours, a well that holds the
aircraft at its layer altitude, and an optional goal pull from the planner.
A velocity-consensus term aligns neighbours on top of the field descent.

Each field's gradient runs over the whole fleet: aircraft i's own
potential, differentiated in its position (velocity for the stabilizer),
scaled by ``weight``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .airspace import (
    AirspaceConfig, Fleet, nonfinite, ring_laps, ring_offset, ring_pairs, search_reach,
)


# The tick's literals as 0-d arrays, which a ufunc takes faster than floats.
_ZERO, _TWO, _TINY = np.array(0.0), np.array(2.0), np.array(1e-12)


class CollisionError(RuntimeError):
    """Raised when two aircraft of one layer occupy the same point."""


@dataclass(frozen=True)
class FieldWeights:
    attract: float = 1e-4
    stabilize: float = 0.5
    repulse: float = 1e4
    layer: float = 0.05
    goal: float = 1e-4
    consensus_gain: float = 0.5

    def __post_init__(self) -> None:
        if bad := nonfinite(self):
            raise ValueError(f"{', '.join(bad)} must be finite")
        for w in (self.attract, self.stabilize, self.repulse, self.layer, self.goal,
                  self.consensus_gain):
            if w < 0.0:
                raise ValueError("field weights cannot be negative")


class Goals(NamedTuple):
    """The planner's goal x of each of ``rows`` (in a flight, the served
    pair); only those rows feel the goal pull.  A goal's altitude is its
    row's layer's, read when the pull is."""

    rows: np.ndarray
    x: np.ndarray


NO_GOALS = Goals(np.empty(0, dtype=int), np.empty(0))


class Band(NamedTuple):
    """The same-layer pairs within the radius: resident ``a[k]`` sees
    resident ``b[k]`` at offset ``sx[k]``, ``sh[k]`` (the short way round),
    ``dist[k]`` away.  The pairs run resident by resident, in ring order,
    and each resident's in row order of ``b``: the column order of its row
    of the dense pair matrix."""

    a: np.ndarray
    b: np.ndarray
    sx: np.ndarray
    sh: np.ndarray
    dist: np.ndarray


# The empty band, on the empty goals' arrays: they have no element to change.
_NO_BAND = Band(NO_GOALS.rows, NO_GOALS.rows, NO_GOALS.x, NO_GOALS.x, NO_GOALS.x)


def neighbour_band(fleet: Fleet, cfg: AirspaceConfig, radius: float) -> Band:
    """The band of the fleet's residents: dist <= radius tested exactly on
    each one's ``ring_pairs`` within ``radius`` in its own layer.

    No two residents of a layer are nearer in x than its smallest ring gap,
    so when every gap exceeds ``search_reach`` the band is empty, and no
    window is searched.
    """
    course, rows, n = cfg.course_length_m, fleet.order, len(fleet.x)
    # the paired residents' gaps: a lone resident's ahead_x is none
    gaps = fleet.ahead_x[fleet.paired]
    if np.minimum.reduce(gaps, initial=np.inf) > search_reach(radius, course):
        return _NO_BAND
    # a starts as the query index k, b as the resident j.  Sorting the codes
    # k * n + j puts each window in row order and leaves k in place, as k
    # ascends; windows mostly ascend already, and the stable sort merges
    # their runs.  Rebinding a and b frees each pair-sized array after use.
    a, b = ring_pairs(fleet, ring_laps(fleet, course), fleet.layer[rows], rows, radius)
    b = a * n + b
    b.sort(kind="stable")
    b -= a * n
    a = rows[a]
    sx = ring_offset(fleet.x[b] - fleet.x[a], course)
    sh = fleet.h[b] - fleet.h[a]
    dist = np.hypot(sx, sh)
    near = ((a != b) & (dist <= radius)).nonzero()[0]  # a window holds its own row once
    band = Band(a[near], b[near], sx[near], sh[near], dist[near])
    if not band.dist.all():
        # a coincident pair is within every radius; report the dense pair
        # matrices' first: lowest layer, then lowest rows
        k = (band.dist == 0.0).nonzero()[0]
        a, b = band.a[k], band.b[k]
        i = np.lexsort((b, a, fleet.layer[a]))[0]
        raise CollisionError(
            f"aircraft {fleet.ids[a[i]]} and {fleet.ids[b[i]]} collided in layer {fleet.layer[a[i]]}"
        )
    return band


def _row_sums(fleet: Fleet, a: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per row r, the sum of the ``terms`` of the pairs with a == r.

    A weighted bincount adds its terms one by one in input order, so a row's
    sum runs in the band's row order: it is the in-order row sum of the dense
    pair matrix, whose other entries are zeros, up to the sign of a zero sum,
    which no force can show.
    """
    return np.bincount(a, terms, len(fleet.x))


def attract_gradient(fleet: Fleet, weight: float = 1.0):
    """The pull runs along the forward offset to the preceding aircraft,
    the same offset whose norm is the front gap of the potential."""
    gx, gh = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    i = fleet.paired
    d = fleet.front[i]
    # 2 gap / d on an open gap, else +0: fmax takes a closed or NaN gap to +0
    # and a NaN d to 1e-12, and a d of 0 is open only at zero separation
    pull = np.fmax(d - fleet.d_safe[i], _ZERO)
    pull *= _TWO
    pull /= np.fmax(d, _TINY)
    pull *= -weight  # (pull * -weight) * a is (weight * pull) * -a: negation is exact
    gx[i] = pull * fleet.ahead_x[i]
    gh[i] = pull * fleet.ahead_h[i]
    return gx, gh


def stabilize_gradient(fleet: Fleet, cfg: AirspaceConfig, weight: float = 1.0):
    return weight * 2.0 * (fleet.vx - cfg.speeds[fleet.layer]), weight * 2.0 * fleet.vy


def repulse_gradient(fleet: Fleet, band: Band, weight: float = 1.0):
    """Of each row's potential: (1/d - 1/d_safe)^2 summed over its band
    pairs closer than its separation."""
    d_safe = fleet.d_safe[band.a]
    k = (band.dist < d_safe).nonzero()[0]
    if len(k) == 0:  # no intruder: the sums of no terms
        return np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    d = band.dist[k]
    inv = 1.0 / d - 1.0 / d_safe[k]
    # the cube by multiplication: an array pow's bits depend on the SIMD
    # level NumPy dispatches to
    scale = -2.0 * inv / (d * d * d)
    a = band.a[k]
    return (weight * _row_sums(fleet, a, scale * -band.sx[k]),
            weight * _row_sums(fleet, a, scale * -band.sh[k]))


def layer_gradient(fleet: Fleet, weight: float = 1.0):
    return np.zeros(len(fleet.x)), weight * 2.0 * fleet.offset


def goal_gradient(fleet: Fleet, goals: Goals, cfg: AirspaceConfig, weight: float = 1.0):
    gx, gh = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    g = goals.rows
    if len(g) == 0:
        return gx, gh
    gdx = ring_offset(goals.x - fleet.x[g], cfg.course_length_m)
    gx[g] = weight * (-2.0 * gdx)
    gh[g] = weight * 2.0 * fleet.offset[g]
    return gx, gh


def consensus(fleet: Fleet, band: Band, gain: float):
    """gain * sum over near neighbours of (own - neighbour velocity).

    Pure damping with no potential; the force subtracts it like a gradient.
    Summed explicitly (not matmul) so reductions stay bit-stable regardless
    of the BLAS thread count.
    """
    deg = np.bincount(band.a, minlength=len(fleet.x))
    return (gain * (deg * fleet.vx - _row_sums(fleet, band.a, fleet.vx[band.b])),
            gain * (deg * fleet.vy - _row_sums(fleet, band.a, fleet.vy[band.b])))


def force(
    fleet: Fleet, goals: Goals, weights: FieldWeights, cfg: AirspaceConfig, radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped commanded acceleration: weighted field descent plus consensus.

    The fleet's ring gives the attraction's preceding aircraft and bounds
    the band; repulsion and consensus act among its residents within
    ``radius``.  The terms are subtracted from +0 in a fixed order, so the
    sums never hold -0 (x - y is -0 only for x = -0), and subtracting a zero
    of either sign changes no bit.  So a field with nothing to act on, no
    pair inside a separation, hands back zeros without further work; the
    layer field's x-part, an empty band's repulsion and consensus and the
    goal pull without goal rows are not subtracted at all.
    """
    band = neighbour_band(fleet, cfg, radius)
    gx, gh = stabilize_gradient(fleet, cfg, weights.stabilize)
    fx, fh = np.subtract(_ZERO, gx), np.subtract(_ZERO, gh)
    fh -= layer_gradient(fleet, weights.layer)[1]  # its x-part is +0
    terms = [attract_gradient(fleet, weights.attract)]
    if len(band.a):
        terms += (repulse_gradient(fleet, band, weights.repulse),
                  consensus(fleet, band, weights.consensus_gain))
    if len(goals.rows):
        terms.append(goal_gradient(fleet, goals, cfg, weights.goal))
    for gx, gh in terms:
        fx -= gx
        fh -= gh
    return fx, fh

