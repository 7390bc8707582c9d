"""Air-to-ground channel with an optional reflecting-surface cascade.

All geometry lives in the vertical (x, h) plane.  The surface is a square
panel of L elements (sqrt(L) per row) whose steering index repeats modulo
sqrt(L), so element phases depend on the azimuth cosines of the incident and
departing paths only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .airspace import nonfinite

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ChannelParams:
    """Large-scale channel constants.

    ref_gain is the path gain at 1 m (beta); the three exponents cover the
    BS->aircraft, BS->surface and surface->aircraft paths.  Powers are linear
    watts, bandwidth in Hz (1.0 keeps capacities in bit/s/Hz).
    """

    ref_gain: float = 1e-3
    alpha_bs_k: float = 2.5
    alpha_bs_i: float = 2.0
    alpha_i_k: float = 2.2
    tx_power_w: float = 1.0
    noise_power_w: float = 1.26e-20
    bandwidth_hz: float = 1.0
    interference_pos: tuple[float, float] | None = None
    interference_power_w: float = 0.0
    interference_alpha: float = 2.2

    def __post_init__(self) -> None:
        if bad := nonfinite(self):
            raise ValueError(f"{', '.join(bad)} must be finite")
        if self.ref_gain <= 0.0 or self.tx_power_w <= 0.0 or self.noise_power_w <= 0.0:
            raise ValueError("powers and reference gain must be positive")
        if min(self.alpha_bs_k, self.alpha_bs_i, self.alpha_i_k, self.interference_alpha) <= 0.0:
            raise ValueError("path-loss exponents must be positive")
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.interference_power_w < 0.0:
            raise ValueError("interference power cannot be negative")
        if self.interference_power_w > 0.0 and self.interference_pos is None:
            raise ValueError("interference power needs an interference position")


@dataclass(frozen=True, eq=False)
class RowPhases:
    """Surface phase shifts, one per steering row: each of the L = rows**2
    elements takes ``phases[l mod sqrt(L)]``.

    Every phase the simulator produces depends on the element only through
    its steering index, so sqrt(L) values describe the whole surface.
    ``phases`` is a read-only array in [0, 2*pi); ``resolution`` is the grid
    step as a fraction of pi (1/4: the grid {m * pi/4}), None if continuous.
    """

    phases: np.ndarray
    resolution: float | None = None

    def __post_init__(self) -> None:
        rows = np.array(self.phases, dtype=float)
        if rows.ndim != 1 or rows.size == 0:
            raise ValueError("row phases must be a non-empty 1-D array")
        if not (rows.min() >= 0.0 and rows.max() < TWO_PI):  # NaN fails too
            raise ValueError("phases must lie in [0, 2*pi)")
        if self.resolution is not None:
            grid_steps(self.resolution)
            ratio = rows / (self.resolution * math.pi)
            if np.abs(ratio - np.rint(ratio)).max() > 1e-9:
                raise ValueError("phase off the resolution grid")
        rows.flags.writeable = False
        object.__setattr__(self, "phases", rows)


class ZeroLengthPath(ValueError):
    """Two ends of a link coincide, so the path has no channel."""


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    d = math.hypot(a[0] - b[0], a[1] - b[1])
    if d <= 0.0:
        raise ZeroLengthPath("zero-length path has no channel")
    return d


def direct_gain(
    bs_pos: tuple[float, float], k_pos: tuple[float, float], params: ChannelParams
) -> complex:
    """Line-of-sight BS->aircraft amplitude sqrt(beta / d^alpha)."""
    d = _distance(bs_pos, k_pos)
    return complex(math.sqrt(params.ref_gain / d ** params.alpha_bs_k))


def _cascade_geometry(
    bs_pos: tuple[float, float], ris_pos: tuple[float, float], k_pos: tuple[float, float]
) -> tuple[float, float, float]:
    """Path lengths d1 (BS->surface) and d2 (surface->aircraft), and the
    mismatch cos_in - cos_out of the two azimuth cosines against +x."""
    d1 = _distance(bs_pos, ris_pos)
    d2 = _distance(ris_pos, k_pos)
    return d1, d2, (ris_pos[0] - bs_pos[0]) / d1 - (k_pos[0] - ris_pos[0]) / d2


def cascaded_gain(
    bs_pos: tuple[float, float],
    ris_pos: tuple[float, float],
    k_pos: tuple[float, float],
    phases: RowPhases,
    params: ChannelParams,
) -> complex:
    """Reflected-path amplitude through the surface.

    Element l contributes exp(j * (pi * u_l * (cos_in - cos_out) + theta_l))
    with u_l its steering index; the common amplitude is
    beta / sqrt(d1^a1 * d2^a2).  The sum runs over the sqrt(L) rows, each
    standing for sqrt(L) equal elements.
    """
    d1, d2, mismatch = _cascade_geometry(bs_pos, ris_pos, k_pos)
    theta = phases.phases
    u = steering_index(theta.size * theta.size)
    summed = np.exp(1j * (math.pi * u * mismatch + theta)).sum()
    summed *= theta.size
    amp = params.ref_gain / math.sqrt(d1**params.alpha_bs_i * d2**params.alpha_i_k)
    return complex(amp * summed)


def cascaded_gain_bound(
    bs_pos: tuple[float, float],
    ris_pos: tuple[float, float],
    k_pos: tuple[float, float],
    num_elements: int,
    params: ChannelParams,
) -> float:
    """Upper bound L * beta / sqrt(d1^a1 * d2^a2) on the cascade magnitude."""
    d1, d2, _ = _cascade_geometry(bs_pos, ris_pos, k_pos)
    return num_elements * params.ref_gain / math.sqrt(d1**params.alpha_bs_i * d2**params.alpha_i_k)


def steering_rows(num_elements: int) -> int:
    """Rows of a square surface of ``num_elements`` elements, its square root."""
    if num_elements < 1 or math.isqrt(num_elements) ** 2 != num_elements:
        raise ValueError("element count must be a positive perfect square")
    return math.isqrt(num_elements)


@cache
def steering_index(num_elements: int) -> np.ndarray:
    """The steering rows 0..sqrt(L)-1 of a surface of L elements, as floats:
    one read-only array per surface size, shared by every caller."""
    u = np.arange(steering_rows(num_elements), dtype=float)
    u.flags.writeable = False
    return u


def optimal_phase_shift(
    bs_pos: tuple[float, float],
    ris_pos: tuple[float, float],
    k_pos: tuple[float, float],
    num_elements: int,
) -> RowPhases:
    """Phases that align every element of the cascade with the direct path.

    theta_u = -pi * u * (cos_in - cos_out) per steering row u, wrapped into
    [0, 2*pi).  With these the cascade sum hits its magnitude bound exactly.
    """
    u = steering_index(num_elements)
    _, _, mismatch = _cascade_geometry(bs_pos, ris_pos, k_pos)
    theta = np.mod(-math.pi * u * mismatch, TWO_PI)
    # mod can return the period itself when the operand is a tiny negative
    theta[theta >= TWO_PI] = 0.0
    return RowPhases(theta)


def grid_steps(resolution: float) -> int:
    """Steps per turn n of the phase grid of step resolution * pi: the one
    rule for a resolution, which must be 2/n for a whole n >= 1 (to 1e-9)."""
    steps = 2.0 / resolution if resolution > 0.0 else 0.0  # NaN gives 0
    whole = round(steps) if math.isfinite(steps) else 0
    if whole < 1 or abs(steps - whole) > 1e-9 * steps:
        raise ValueError("phase resolution must be 2/n for a whole number n >= 1")
    return whole


def quantize_config(config: RowPhases, resolution: float) -> RowPhases:
    """Snap every row phase to the nearest multiple of resolution * pi, exact
    midpoints toward the smaller one; the step at 2*pi wraps to step 0."""
    n = grid_steps(resolution)
    step = resolution * math.pi
    return RowPhases(np.ceil(config.phases / step - 0.5) % n * step, resolution)


def interference_at(k_pos: tuple[float, float], params: ChannelParams) -> float:
    """Received interference power at the aircraft, 0 when no source is set."""
    if params.interference_pos is None or params.interference_power_w == 0.0:
        return 0.0
    d = _distance(params.interference_pos, k_pos)
    return params.interference_power_w * params.ref_gain / d ** params.interference_alpha


def _receive_snr(amplitude: float, k_pos: tuple[float, float], params: ChannelParams) -> float:
    """|h|^2 P / (noise + interference) at the aircraft."""
    denom = params.noise_power_w + interference_at(k_pos, params)
    return amplitude**2 * params.tx_power_w / denom


def snr(
    bs_pos: tuple[float, float],
    ris_pos: tuple[float, float] | None,
    k_pos: tuple[float, float],
    phases: RowPhases | None,
    params: ChannelParams,
) -> float:
    """Receive SNR of the combined direct and reflected paths.

    Pass ris_pos=None (or phases=None) for a direct-only link.  Interference
    configured on ``params`` adds to the noise floor.
    """
    h = direct_gain(bs_pos, k_pos, params)
    if ris_pos is not None and phases is not None:
        h += cascaded_gain(bs_pos, ris_pos, k_pos, phases, params)
    return _receive_snr(abs(h), k_pos, params)


def aligned_snr(
    bs_pos: tuple[float, float],
    ris_pos: tuple[float, float],
    k_pos: tuple[float, float],
    num_elements: int,
    params: ChannelParams,
) -> float:
    """SNR under continuously adjustable, optimally aligned phases.

    optimal_phase_shift turns every element's term real and positive, as is
    the direct gain, so the combined amplitude is exactly |h_direct| +
    cascaded_gain_bound (acceptance criterion 1 checks the cascade against
    the bound to 1e-9).
    """
    amplitude = abs(direct_gain(bs_pos, k_pos, params)) + cascaded_gain_bound(
        bs_pos, ris_pos, k_pos, num_elements, params
    )
    return _receive_snr(amplitude, k_pos, params)


def capacity(snr_value: float, params: ChannelParams) -> float:
    """Shannon capacity B * log2(1 + snr)."""
    if snr_value < 0.0:
        raise ValueError("snr cannot be negative")
    return params.bandwidth_hz * math.log2(1.0 + snr_value)
