"""Position planner that keeps the reflect-path phases on the quantizer grid.

Quantized surface phases only align perfectly when the element steering term
u * (cos_in - cos_out) sits on the resolution grid for every steering row u.
The alignment fitness (problem P4) depends on a candidate (x_low, x_high)
only through the scalar mismatch m = cos_in - cos_out, and m rises with x_low
and falls with x_high.  So the planner minimizes the fitness exactly over
the range of m the search box can reach, then maps the best m back to a
point in the box.  Every mismatch is the surface's own, read from
``ris.cascade_geometry`` on Python floats, so the plan starts from the
mismatch the phases are steered by, and a candidate on the surface raises
``ZeroLengthPath`` as a coincident link does.  The particle swarm the paper
solves P4 with (``pso_minimize``) is kept as a reference the exact solver is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ris import cascade_geometry, grid_steps, steering_index, steering_rows


@dataclass(frozen=True)
class PsoParams:
    swarm_size: int = 30
    iterations: int = 100
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    velocity_clamp_frac: float = 0.2

    def __post_init__(self) -> None:
        if self.swarm_size < 2 or self.iterations < 1:
            raise ValueError("swarm size and iterations must be meaningful")
        if not 0.0 < self.inertia < 1.0:
            raise ValueError("inertia must lie in (0, 1)")
        if self.cognitive <= 0.0 or self.social <= 0.0:
            raise ValueError("acceleration coefficients must be positive")
        if not 0.0 < self.velocity_clamp_frac <= 1.0:
            raise ValueError("velocity clamp must be a fraction of the box")


@dataclass(frozen=True)
class PlanningQuery:
    """One planning window for a (low, high) pair served through the surface.

    Positions are current; the search box runs from each aircraft's current x
    forward by ``horizon_m``, the one airframe's reach over the window,
    excluding the current x itself.  Altitudes stay at the layer levels.
    ``low_fixed`` pins the surface where it is, as for a stationary surface:
    then x_low is the current x and only x_high is searched.
    """

    bs_pos: tuple[float, float]
    low_pos: tuple[float, float]
    high_pos: tuple[float, float]
    horizon_m: float
    num_elements: int
    resolution: float
    low_fixed: bool = False

    def __post_init__(self) -> None:
        if self.horizon_m <= 0.0:
            raise ValueError("the planning horizon must be positive")
        steering_rows(self.num_elements)
        grid_steps(self.resolution)

    def search_box(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Closed (near, far) x range of the low aircraft, then of the high.

        Each range is half-open at the current x; it is shrunk there by a
        hair so every candidate stays strictly ahead.  A fixed surface gets
        the degenerate range (x, x).
        """
        x_low, x_high = self.low_pos[0], self.high_pos[0]
        if self.low_fixed:
            low = (x_low, x_low)
        else:
            low = (x_low + 1e-9 * max(1.0, abs(x_low)), x_low + self.horizon_m)
        return low, (x_high + 1e-9 * max(1.0, abs(x_high)), x_high + self.horizon_m)


def cosine_mismatch(x_low: float, x_high: float, query: PlanningQuery) -> float:
    """cos(BS->low) - cos(low->high) at the candidate x positions: the
    surface's own mismatch, from ``ris.cascade_geometry``."""
    low, high = (x_low, query.low_pos[1]), (x_high, query.high_pos[1])
    return cascade_geometry(query.bs_pos, low, high)[2]


def grid_fitness(
    mismatch: np.ndarray | float, num_elements: int, resolution: float
) -> np.ndarray:
    """Mean squared distance of the steering terms u * m from the grid.

    The steering index cycles through the rows 0..sqrt(L)-1 with equal
    multiplicity, so the mean over the rows equals the mean over all L
    elements.  Vectorized over any array of mismatches.
    """
    u = steering_index(num_elements)
    terms = np.multiply.outer(np.asarray(mismatch, dtype=float), u)
    residual = terms - (terms / resolution).round() * resolution
    return (residual**2).mean(axis=-1)


def best_mismatch(
    m_lo: float, m_hi: float, num_elements: int, resolution: float, near: float
) -> float:
    """Exact minimizer of the grid fitness over mismatches in [m_lo, m_hi].

    A grid multiple k * resolution puts every row on the grid (fitness 0);
    of those in range the one closest to ``near`` wins.  Otherwise the
    fitness is a piecewise quadratic in m whose pieces break where some row
    crosses half a grid step, m = (j + 1/2) * resolution / u.  On each piece
    the rounded multiples k_u are fixed and the quadratic is least at
    m* = resolution * sum(u k_u) / sum(u^2), clipped to the piece.  The best
    of those candidates is the global minimum.
    """
    u = steering_index(num_elements)[1:]
    if u.size == 0:  # a single element has nothing to align
        return min(max(near, m_lo), m_hi)
    k = round(near / resolution)
    k = min(max(k, math.ceil(m_lo / resolution)), math.floor(m_hi / resolution))
    if m_lo <= k * resolution <= m_hi:
        return k * resolution
    breaks = [
        (np.arange(math.ceil(m_lo * r / resolution - 0.5), math.floor(m_hi * r / resolution - 0.5) + 1) + 0.5)
        * (resolution / r)
        for r in u
    ]
    edges = np.unique(np.concatenate([[m_lo, m_hi], *breaks]))
    edges = edges[(edges >= m_lo) & (edges <= m_hi)]
    lo, hi = edges[:-1], edges[1:]
    k_u = (np.multiply.outer(0.5 * (lo + hi), u) / resolution).round()
    # summed explicitly (not matmul) so the result is independent of BLAS
    stationary = resolution * (k_u * u).sum(axis=1) / (u * u).sum()
    cands = np.concatenate([stationary.clip(lo, hi), edges])
    return float(cands[grid_fitness(cands, num_elements, resolution).argmin()])


def _bisect_low(m_target: float, x_high: float, a: float, b: float, query: PlanningQuery) -> float:
    """x_low in [a, b] with mismatch m_target at x_high (m rises with x_low)."""
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        if cosine_mismatch(mid, x_high, query) < m_target:
            a = mid
        else:
            b = mid
    err_a = abs(cosine_mismatch(a, x_high, query) - m_target)
    return a if err_a <= abs(cosine_mismatch(b, x_high, query) - m_target) else b


def _place(m_target: float, query: PlanningQuery) -> tuple[float, float]:
    """An in-box (x_low, x_high) whose mismatch is m_target.

    x_low is fixed at the middle of its range and x_high solved in closed
    form from cos(low->high) = cos_in - m_target; only when that x_high
    leaves the box is x_high pinned to the box edge and x_low bisected.
    ``m_target`` must lie in the range the box reaches.
    """
    (low_near, low_far), (high_near, high_far) = query.search_box()
    x0 = 0.5 * (low_near + low_far)
    if m_target <= cosine_mismatch(x0, high_far, query):
        return _bisect_low(m_target, high_far, low_near, x0, query), high_far
    low, high = (x0, query.low_pos[1]), (high_near, query.high_pos[1])
    d1, _, m_near = cascade_geometry(query.bs_pos, low, high)
    if m_target >= m_near:
        return _bisect_low(m_target, high_near, x0, low_far, query), high_near
    c = (x0 - query.bs_pos[0]) / d1 - m_target
    dh = abs(query.high_pos[1] - query.low_pos[1])
    x_high = x0 + c * dh / math.sqrt(1.0 - c * c)
    return x0, min(max(x_high, high_near), high_far)


def pso_minimize(
    fn,
    lower: np.ndarray,
    upper: np.ndarray,
    params: PsoParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Minimize ``fn`` over a box with a canonical inertial particle swarm.

    fn takes an (n, dim) array and returns n fitness values.  Particles are
    clipped to the box, velocities clamped to a fraction of the box width.
    The best position ever seen is returned, so the result never regresses.
    The simulator does not call it; tests use it as the reference for the
    exact planner.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    dim = len(lower)
    span = upper - lower
    if np.any(span <= 0.0):
        raise ValueError("upper bounds must exceed lower bounds")
    n = params.swarm_size
    pos = lower + rng.random((n, dim)) * span
    vmax = params.velocity_clamp_frac * span
    vel = (rng.random((n, dim)) * 2.0 - 1.0) * vmax
    fit = np.asarray(fn(pos), dtype=float)
    best_pos = pos.copy()
    best_fit = fit.copy()
    g_idx = int(np.argmin(best_fit))
    g_pos = best_pos[g_idx].copy()
    g_fit = float(best_fit[g_idx])
    for _ in range(params.iterations):
        r1 = rng.random((n, dim))
        r2 = rng.random((n, dim))
        vel = (
            params.inertia * vel
            + params.cognitive * r1 * (best_pos - pos)
            + params.social * r2 * (g_pos[None, :] - pos)
        )
        vel = np.clip(vel, -vmax, vmax)
        pos = np.clip(pos + vel, lower, upper)
        fit = np.asarray(fn(pos), dtype=float)
        improved = fit < best_fit
        best_pos[improved] = pos[improved]
        best_fit[improved] = fit[improved]
        g_idx = int(np.argmin(best_fit))
        if best_fit[g_idx] < g_fit:
            g_fit = float(best_fit[g_idx])
            g_pos = best_pos[g_idx].copy()
    return g_pos, g_fit


def pso_optimize(query: PlanningQuery) -> tuple[tuple[float, float], float]:
    """Best next-window (x_low, x_high) for the pair, with its fitness.

    An exact, deterministic solve: the box reaches the mismatches between
    its corners m(low near, high far) and m(low far, high near);
    ``best_mismatch`` minimizes the fitness over that range, preferring the
    zero nearest the pair's current mismatch, the one the surface's phases
    are steered by, so the pair re-steers least, and ``_place`` maps the
    minimizer back into the box.  Every mismatch is ``ris.cascade_geometry``'s,
    so a candidate on the surface raises ``ZeroLengthPath``.  The name is that
    of the swarm search it replaced, kept because the benchmark's tracer looks
    the planner up under it.
    """
    (low_near, low_far), (high_near, high_far) = query.search_box()
    m_lo = cosine_mismatch(low_near, high_far, query)
    m_hi = cosine_mismatch(low_far, high_near, query)
    near = cosine_mismatch(query.low_pos[0], query.high_pos[0], query)
    m = best_mismatch(m_lo, m_hi, query.num_elements, query.resolution, near)
    if m == m_lo:
        best = (low_near, high_far)
    elif m == m_hi:
        best = (low_far, high_near)
    else:
        best = _place(m, query)
    mism = cosine_mismatch(best[0], best[1], query)
    return best, float(grid_fitness(mism, query.num_elements, query.resolution))
