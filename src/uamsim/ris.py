"""Air-to-ground channel with an optional reflecting-surface cascade.

All geometry lives in the vertical (x, h) plane.  The surface is a square
panel of L elements (sqrt(L) per row) whose steering index repeats modulo
sqrt(L), so element phases depend on the azimuth cosines of the incident and
departing paths only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        if self.ref_gain <= 0.0 or self.tx_power_w <= 0.0 or self.noise_power_w <= 0.0:
            raise ValueError("powers and reference gain must be positive")
        for a in (self.alpha_bs_k, self.alpha_bs_i, self.alpha_i_k, self.interference_alpha):
            if a <= 0.0:
                raise ValueError("path-loss exponents must be positive")
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.interference_power_w < 0.0:
            raise ValueError("interference power cannot be negative")


def _check_phases(phases: np.ndarray, resolution: float | None) -> None:
    """Phases in [0, 2*pi), on the resolution grid when one is given."""
    if not (phases.min() >= 0.0 and phases.max() < TWO_PI):  # NaN fails too
        raise ValueError("phases must lie in [0, 2*pi)")
    if resolution is not None:
        if resolution <= 0.0:
            raise ValueError("resolution must be positive")
        ratio = phases / (resolution * math.pi)
        if np.abs(ratio - np.rint(ratio)).max() > 1e-9:
            raise ValueError("phase off the resolution grid")


def _check_square(n: int) -> int:
    """sqrt(n) for a positive perfect square n."""
    root = math.isqrt(n)
    if root * root != n or n == 0:
        raise ValueError("element count must be a positive perfect square")
    return root


@dataclass(frozen=True)
class PhaseShiftConfig:
    """Per-element phase shifts in [0, 2*pi).

    ``resolution`` is the grid step as a fraction of pi (e.g. 1/4 means the
    grid {m * pi/4}); None means continuously adjustable phases.  Any phase
    pattern fits; the simulator itself only needs ``RowPhases``.
    """

    phases: tuple[float, ...]
    resolution: float | None = None

    def __post_init__(self) -> None:
        _check_square(len(self.phases))
        _check_phases(np.asarray(self.phases, dtype=float), self.resolution)

    @property
    def num_elements(self) -> int:
        return len(self.phases)


@dataclass(frozen=True, eq=False)
class RowPhases:
    """Phase shifts shared along each steering row: element l takes
    ``phases[l mod sqrt(L)]``.

    Every phase the simulator produces depends on the element only through
    its steering index, so sqrt(L) values describe the whole surface.
    ``phases`` is a read-only array; ``resolution`` as in PhaseShiftConfig.
    """

    phases: np.ndarray
    num_elements: int
    resolution: float | None = None

    def __post_init__(self) -> None:
        rows = np.array(self.phases, dtype=float)
        if rows.shape != (_check_square(self.num_elements),):
            raise ValueError("row phases need one value per steering row")
        _check_phases(rows, self.resolution)
        rows.flags.writeable = False
        object.__setattr__(self, "phases", rows)


class ZeroLengthPath(ValueError):
    """Two ends of a link coincide, so the path has no channel."""


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    d = math.hypot(a[0] - b[0], a[1] - b[1])
    if d <= 0.0:
        raise ZeroLengthPath("zero-length path has no channel")
    return d


def steering_indices(num_elements: int) -> np.ndarray:
    """Per-element steering multipliers (l - 1) mod sqrt(L)."""
    root = math.isqrt(num_elements)
    if root * root != num_elements:
        raise ValueError("element count must be a perfect square")
    return np.arange(num_elements) % root


def direct_gain(
    bs_pos: tuple[float, float], k_pos: tuple[float, float], params: ChannelParams
) -> complex:
    """Line-of-sight BS->aircraft amplitude sqrt(beta / d^alpha)."""
    d = _distance(bs_pos, k_pos)
    return complex(math.sqrt(params.ref_gain / d ** params.alpha_bs_k))

def azimuth_cosine(src: tuple[float, float], dst: tuple[float, float]) -> float:
    """Cosine of the departure angle measured against the +x axis."""
    return (dst[0] - src[0]) / _distance(src, dst)


def cascaded_gain(
    bs_pos: tuple[float, float],
    ris_pos: tuple[float, float],
    k_pos: tuple[float, float],
    phases: PhaseShiftConfig | RowPhases,
    params: ChannelParams,
) -> complex:
    """Reflected-path amplitude through the surface.

    Element l contributes exp(j * (pi * u_l * (cos_in - cos_out) + theta_l))
    with u_l its steering index; the common amplitude is
    beta / sqrt(d1^a1 * d2^a2).  Row phases sum over the sqrt(L) rows, each
    standing for sqrt(L) equal elements.
    """
    d1 = _distance(bs_pos, ris_pos)
    d2 = _distance(ris_pos, k_pos)
    cos_in = (ris_pos[0] - bs_pos[0]) / d1
    cos_out = (k_pos[0] - ris_pos[0]) / d2
    theta = np.asarray(phases.phases, dtype=float)
    u = np.arange(theta.size) % math.isqrt(phases.num_elements)
    summed = np.exp(1j * (math.pi * u * (cos_in - cos_out) + theta)).sum()
    summed *= phases.num_elements // theta.size
    amp = params.ref_gain / math.sqrt(
        d1 ** params.alpha_bs_i * d2 ** params.alpha_i_k
    )
    return complex(amp * summed)


def cascaded_gain_bound(
    bs_pos: tuple[float, float],
    ris_pos: tuple[float, float],
    k_pos: tuple[float, float],
    num_elements: int,
    params: ChannelParams,
) -> float:
    """Upper bound L * beta / sqrt(d1^a1 * d2^a2) on the cascade magnitude."""
    d1 = _distance(bs_pos, ris_pos)
    d2 = _distance(ris_pos, k_pos)
    return num_elements * params.ref_gain / math.sqrt(
        d1 ** params.alpha_bs_i * d2 ** params.alpha_i_k
    )


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
    cos_in = azimuth_cosine(bs_pos, ris_pos)
    cos_out = azimuth_cosine(ris_pos, k_pos)
    u = np.arange(_check_square(num_elements))
    theta = np.mod(-math.pi * u * (cos_in - cos_out), TWO_PI)
    # mod can return the period itself when the operand is a tiny negative
    theta[theta >= TWO_PI] = 0.0
    return RowPhases(theta, num_elements)


def quantize_phase(theta: float, resolution: float) -> float:
    """Snap ``theta`` to the nearest multiple of resolution * pi.

    Exact midpoints round toward the smaller multiple.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    step = resolution * math.pi
    m = math.ceil(theta / step - 0.5)
    return m * step


def quantize_config(
    config: PhaseShiftConfig | RowPhases, resolution: float
) -> PhaseShiftConfig | RowPhases:
    """Quantize every phase of ``config`` onto the given grid, keeping its form.

    Element by element the same arithmetic as quantize_phase, wrapped back
    into [0, 2*pi).
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    step = resolution * math.pi
    theta = np.asarray(config.phases, dtype=float)
    snapped = np.fmod(np.ceil(theta / step - 0.5) * step, TWO_PI)
    snapped[snapped < 0.0] += TWO_PI
    # guard against fmod returning the period itself
    snapped[snapped >= TWO_PI] = 0.0
    if isinstance(config, RowPhases):
        return RowPhases(snapped, config.num_elements, resolution)
    return PhaseShiftConfig(tuple(snapped.tolist()), resolution)


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
    phases: PhaseShiftConfig | RowPhases | None,
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
