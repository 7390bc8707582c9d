"""The five field values and their weighted total: what ``fields``'
gradients differentiate, kept beside the package as its tests' reference.

Each value is aircraft i's own potential over the whole fleet; the total
weights and sums them over the residents.  Criterion 4 checks the package's
gradients against central differences of these values, and criterion 6
reads the total of a flown trace.
"""

import numpy as np

from uamsim.airspace import fleet_state, ring_offset
from uamsim.fields import NO_GOALS, neighbour_band
from uamsim.switching import MODE_SWITCHING


def attract_value(fleet):
    gap = fleet.front - fleet.d_safe
    return np.where(np.isin(np.arange(len(gap)), fleet.paired) & (gap >= 0.0), gap * gap, 0.0)


def stabilize_value(fleet, cfg):
    dvx = fleet.vx - cfg.speeds[fleet.layer]
    return dvx * dvx + fleet.vy * fleet.vy


def repulse_value(fleet, band):
    """Per row, the in-order sum of (1/d - 1/d_safe)^2 over its band pairs
    closer than its separation."""
    d_safe = fleet.d_safe[band.a]
    k = (band.dist < d_safe).nonzero()[0]
    inv = 1.0 / band.dist[k] - 1.0 / d_safe[k]
    return np.bincount(band.a[k], inv * inv, len(fleet.x))


def layer_value(fleet):
    return fleet.offset * fleet.offset


def goal_value(fleet, goals, cfg):
    value = np.zeros(len(fleet.x))
    g = goals.rows
    dx = ring_offset(goals.x - fleet.x[g], cfg.course_length_m)
    dh = fleet.offset[g]
    value[g] = dx * dx + dh * dh
    return value


def potential(fleet, goals, weights, cfg, radius):
    """Weighted sum of the five field values over the residents, the rows
    whose motion ``fields.force`` steers (a switching row flies its profile)."""
    band = neighbour_band(fleet, cfg, radius)
    terms = (
        (weights.stabilize, stabilize_value(fleet, cfg)),
        (weights.layer, layer_value(fleet)),
        (weights.attract, attract_value(fleet)),
        (weights.repulse, repulse_value(fleet, band)),
        (weights.goal, goal_value(fleet, goals, cfg)),
    )
    return sum(w * float(np.sum(v[fleet.resident])) for w, v in terms)


def composite_field_total(trace):
    """The field total of the rows not mid-switch at every recorded tick.

    Velocity consensus is pure damping with no potential, so it has no
    term; goal terms are left out, as the trace does not record the
    planner's goal points (with the goal weight at zero, as flow-convergence
    scenarios run, nothing is lost).  A relaxing flow drives the total
    toward its structural floor.
    """
    sc, ids = trace.scenario, trace.ids
    out = np.zeros(len(trace.x))
    for k in range(len(trace.x)):
        fleet = fleet_state(
            trace.x[k], trace.h[k], trace.vx[k], trace.vy[k], trace.layer[k],
            trace.mode[k] != MODE_SWITCHING, ids, sc.airspace,
        )
        out[k] = potential(fleet, NO_GOALS, sc.weights, sc.airspace, sc.neighbor_radius_m)
    return out
