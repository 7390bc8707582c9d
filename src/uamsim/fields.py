"""Composite potential fields that shape per-aircraft acceleration.

Five quadratic fields combine: attraction toward the preceding aircraft's
comfortable gap, a speed stabilizer around the layer's expected velocity,
short-range repulsion from intruding neighbours, a well that holds the
aircraft at its layer altitude, and an optional goal pull from the planner.
A velocity-consensus term aligns neighbours on top of the field descent.

Each field has a value and a gradient side by side, over the whole fleet:
aircraft i's own potential, differentiated in its position (velocity for
the stabilizer).  Gradients come scaled by ``weight``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .airspace import AirspaceConfig, Fleet, Ring, layer_residents, ring_offset


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
        for w in (self.attract, self.stabilize, self.repulse, self.layer, self.goal,
                  self.consensus_gain):
            if w < 0.0:
                raise ValueError("field weights cannot be negative")


class Goals(NamedTuple):
    """Planner goal points; only the ``active`` rows feel the goal pull."""

    x: np.ndarray
    h: np.ndarray
    active: np.ndarray


class LayerPairs(NamedTuple):
    """Offsets from ``members[a]`` to ``members[b]``, the short way round;
    ``dist`` is infinite on the diagonal, ``near`` within the radius."""

    members: np.ndarray
    sx: np.ndarray
    sh: np.ndarray
    dist: np.ndarray
    near: np.ndarray


def layer_pairs(fleet: Fleet, cfg: AirspaceConfig, radius: float) -> list[LayerPairs]:
    """Pairwise geometry of every layer with at least two residents."""
    out = []
    for lay in (0, 1, 2):
        members = layer_residents(fleet, lay)
        if len(members) < 2:
            continue
        x, h = fleet.x[members], fleet.h[members]
        sx = ring_offset(x[None, :] - x[:, None], cfg.course_length_m)
        sh = h[None, :] - h[:, None]
        dist = np.hypot(sx, sh)
        np.fill_diagonal(dist, np.inf)
        if np.any(dist == 0.0):
            a, b = np.argwhere(dist == 0.0)[0]
            ia, ib = fleet.ids[members[a]], fleet.ids[members[b]]
            raise CollisionError(f"aircraft {ia} and {ib} collided in layer {lay}")
        out.append(LayerPairs(members, sx, sh, dist, dist <= radius))
    return out


def attract_value(fleet: Fleet, ring: Ring) -> np.ndarray:
    gap = ring.front - fleet.d_safe
    return np.where((ring.prec >= 0) & (gap >= 0.0), gap * gap, 0.0)


def attract_gradient(fleet: Fleet, ring: Ring, weight: float = 1.0):
    """The pull runs along the forward offset to the preceding aircraft,
    the same offset whose norm is the front gap of the value."""
    gx, gh = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    i = np.where(ring.prec >= 0)[0]
    d = ring.front[i]
    gap = d - fleet.d_safe[i]
    pull = np.where((gap >= 0.0) & (d > 0.0), 2.0 * gap / np.maximum(d, 1e-12), 0.0)
    gx[i] = weight * pull * -ring.ahead_x[i]
    gh[i] = weight * pull * -ring.ahead_h[i]
    return gx, gh


def stabilize_value(fleet: Fleet, cfg: AirspaceConfig) -> np.ndarray:
    dvx = fleet.vx - np.array(cfg.expected_speeds_mps)[fleet.layer]
    return dvx * dvx + fleet.vy * fleet.vy


def stabilize_gradient(fleet: Fleet, cfg: AirspaceConfig, weight: float = 1.0):
    ref = np.array(cfg.expected_speeds_mps)[fleet.layer]
    return weight * 2.0 * (fleet.vx - ref), weight * 2.0 * fleet.vy


def _intrusions(fleet: Fleet, pairs: list[LayerPairs]):
    """Per layer with a pair inside the row aircraft's separation: the
    pairs, the pairs inside, and 1/d - 1/d_safe there (0 elsewhere)."""
    for p in pairs:
        d_safe = fleet.d_safe[p.members][:, None]
        inside = p.near & (p.dist < d_safe)
        if np.any(inside):
            yield p, inside, np.where(inside, 1.0 / p.dist - 1.0 / d_safe, 0.0)


def repulse_value(fleet: Fleet, pairs: list[LayerPairs]) -> np.ndarray:
    out = np.zeros(len(fleet.x))
    for p, _, inv in _intrusions(fleet, pairs):
        out[p.members] = np.sum(inv * inv, axis=1)
    return out


def repulse_gradient(fleet: Fleet, pairs: list[LayerPairs], weight: float = 1.0):
    gx, gh = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    for p, inside, inv in _intrusions(fleet, pairs):
        scale = np.where(inside, -2.0 * inv / p.dist**3, 0.0)
        gx[p.members] = weight * np.sum(scale * -p.sx, axis=1)
        gh[p.members] = weight * np.sum(scale * -p.sh, axis=1)
    return gx, gh


def _layer_offset(fleet: Fleet, cfg: AirspaceConfig) -> np.ndarray:
    return fleet.h - cfg.layer_altitude(fleet.layer)


def layer_value(fleet: Fleet, cfg: AirspaceConfig) -> np.ndarray:
    off = _layer_offset(fleet, cfg)
    return off * off


def layer_gradient(fleet: Fleet, cfg: AirspaceConfig, weight: float = 1.0):
    return np.zeros(len(fleet.x)), weight * 2.0 * _layer_offset(fleet, cfg)


def goal_value(fleet: Fleet, goals: Goals, cfg: AirspaceConfig) -> np.ndarray:
    dx = ring_offset(goals.x - fleet.x, cfg.course_length_m)
    dh = fleet.h - goals.h
    return np.where(goals.active, dx * dx + dh * dh, 0.0)


def goal_gradient(fleet: Fleet, goals: Goals, cfg: AirspaceConfig, weight: float = 1.0):
    gx, gh = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    g = goals.active
    gdx = ring_offset(goals.x[g] - fleet.x[g], cfg.course_length_m)
    gx[g] = weight * (-2.0 * gdx)
    gh[g] = weight * 2.0 * (fleet.h[g] - goals.h[g])
    return gx, gh


def consensus(fleet: Fleet, pairs: list[LayerPairs], gain: float):
    """gain * sum over near neighbours of (own - neighbour velocity).

    Pure damping with no potential; the force subtracts it like a gradient.
    Summed explicitly (not matmul) so reductions stay bit-stable regardless
    of the BLAS thread count.
    """
    cx, ch = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    for p in pairs:
        m = p.members
        deg = p.near.sum(axis=1)
        nb_vx = np.sum(np.where(p.near, fleet.vx[m][None, :], 0.0), axis=1)
        nb_vy = np.sum(np.where(p.near, fleet.vy[m][None, :], 0.0), axis=1)
        cx[m] = gain * (deg * fleet.vx[m] - nb_vx)
        ch[m] = gain * (deg * fleet.vy[m] - nb_vy)
    return cx, ch


def force(
    fleet: Fleet, ring: Ring, goals: Goals, weights: FieldWeights,
    cfg: AirspaceConfig, radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped commanded acceleration: weighted field descent plus consensus.

    ``ring`` gives the attraction's preceding aircraft; repulsion and
    consensus act among the fleet's residents within ``radius``.
    """
    pairs = layer_pairs(fleet, cfg, radius)
    fx, fh = np.zeros(len(fleet.x)), np.zeros(len(fleet.x))
    for gx, gh in (
        stabilize_gradient(fleet, cfg, weights.stabilize),
        layer_gradient(fleet, cfg, weights.layer),
        attract_gradient(fleet, ring, weights.attract),
        repulse_gradient(fleet, pairs, weights.repulse),
        consensus(fleet, pairs, weights.consensus_gain),
        goal_gradient(fleet, goals, cfg, weights.goal),
    ):
        fx -= gx
        fh -= gh
    return fx, fh


def potential(
    fleet: Fleet, ring: Ring, goals: Goals, weights: FieldWeights,
    cfg: AirspaceConfig, radius: float,
) -> float:
    """Weighted sum of the five field values over the residents, the rows
    whose motion ``force`` steers (a switching row flies its profile)."""
    pairs = layer_pairs(fleet, cfg, radius)
    terms = (
        (weights.stabilize, stabilize_value(fleet, cfg)),
        (weights.layer, layer_value(fleet, cfg)),
        (weights.attract, attract_value(fleet, ring)),
        (weights.repulse, repulse_value(fleet, pairs)),
        (weights.goal, goal_value(fleet, goals, cfg)),
    )
    return sum(w * float(np.sum(v[fleet.resident])) for w, v in terms)
