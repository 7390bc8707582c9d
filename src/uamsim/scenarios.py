"""Built-in traffic scenarios and a flat text format for custom ones.

Scenario files are ``key = value`` lines.  Nested settings use dotted keys
(``airspace.layer_spacing_m = 100``), aircraft rows use
``aircraft.<id> = <layer>,<x>[,<speed_offset>[,<altitude_offset>]]``.
Unknown keys are hard errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from .airspace import AirspaceConfig
from .engine import AircraftSpec, PhaseMode, RisMode, Scenario
from .fields import FieldWeights
from .netcalc import ProtocolParams
from .ris import ChannelParams

_SECTIONS = {
    "airspace": AirspaceConfig,
    "channel": ChannelParams,
    "protocol": ProtocolParams,
    "weights": FieldWeights,
}
_TOP_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(Scenario)
    if f.name not in _SECTIONS and f.name != "aircraft"
)
# fields that accept "none" in place of a value
_NONE_OK = {"interference_pos", "arrival_rate"}


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (RisMode, PhaseMode)):
        return value.value
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(field_name: str, raw: str, current):
    if field_name in _NONE_OK and raw.lower() == "none":
        return None
    if field_name == "interference_pos":
        parts = raw.split(",")
        if len(parts) != 2:
            raise ValueError(f"{field_name}: expected two coordinates")
        return (float(parts[0]), float(parts[1]))
    if field_name == "arrival_rate":
        return float(raw)
    if isinstance(current, RisMode) or field_name == "ris_mode":
        return RisMode(raw)
    if isinstance(current, PhaseMode) or field_name == "phase_mode":
        return PhaseMode(raw)
    if isinstance(current, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{field_name}: expected true or false, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(float(p) for p in raw.split(","))
    if isinstance(current, str):
        return raw
    raise ValueError(f"{field_name}: unsupported setting type")


def _parse_aircraft(aid: int, raw: str) -> AircraftSpec:
    parts = [p.strip() for p in raw.split(",")]
    if not 2 <= len(parts) <= 4:
        raise ValueError(
            f"aircraft.{aid}: expected layer,x[,speed_offset[,altitude_offset]]"
        )
    layer = int(parts[0])
    x = float(parts[1])
    dv = float(parts[2]) if len(parts) > 2 else 0.0
    dh = float(parts[3]) if len(parts) > 3 else 0.0
    return AircraftSpec(aid, layer, x, dv, dh)


def apply_settings(sc: Scenario, items: list[tuple[str, str]]) -> Scenario:
    """Return a scenario with the given dotted-key assignments applied."""
    section_over: dict[str, dict] = {name: {} for name in _SECTIONS}
    top_over: dict = {}
    craft = {a.aircraft_id: a for a in sc.aircraft}
    craft_dirty = False
    for key, raw in items:
        key = key.strip()
        raw = raw.strip()
        if key.startswith("aircraft."):
            tail = key.split(".", 1)[1]
            try:
                aid = int(tail)
            except ValueError:
                raise ValueError(f"bad aircraft id in key {key!r}") from None
            craft[aid] = _parse_aircraft(aid, raw)
            craft_dirty = True
        elif "." in key:
            section, field_name = key.split(".", 1)
            if section not in _SECTIONS:
                raise ValueError(f"unknown settings section {section!r}")
            obj = getattr(sc, section)
            names = {f.name for f in dataclasses.fields(obj)}
            if field_name not in names:
                raise ValueError(f"unknown setting {key!r}")
            section_over[section][field_name] = _parse_value(
                field_name, raw, getattr(obj, field_name)
            )
        else:
            if key not in _TOP_FIELDS:
                raise ValueError(f"unknown setting {key!r}")
            top_over[key] = _parse_value(key, raw, getattr(sc, key))
    new_sections = {
        name: dataclasses.replace(getattr(sc, name), **over)
        for name, over in section_over.items()
        if over
    }
    out = dataclasses.replace(sc, **new_sections, **top_over)
    if craft_dirty:
        specs = tuple(sorted(craft.values(), key=lambda a: a.aircraft_id))
        out = dataclasses.replace(out, aircraft=specs)
    return out


def load_scenario(path: str) -> Scenario:
    items: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            items.append((key, raw))
    return apply_settings(Scenario(aircraft=()), items)


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name in _TOP_FIELDS:
            fh.write(f"{name} = {_format_value(getattr(sc, name))}\n")
        for section in _SECTIONS:
            obj = getattr(sc, section)
            for f in dataclasses.fields(obj):
                fh.write(
                    f"{section}.{f.name} = {_format_value(getattr(obj, f.name))}\n"
                )
        for a in sorted(sc.aircraft, key=lambda s: s.aircraft_id):
            fh.write(
                f"aircraft.{a.aircraft_id} = {a.layer},{a.x!r},"
                f"{a.speed_offset!r},{a.altitude_offset!r}\n"
            )


# --- built-in scenarios ----------------------------------------------------


def _even_specs(per_layer: int, course: float) -> tuple[AircraftSpec, ...]:
    specs = []
    aid = 0
    for lay in (0, 1, 2):
        for k in range(per_layer):
            specs.append(AircraftSpec(aid, lay, x=k * course / per_layer))
            aid += 1
    return tuple(specs)


def _random_specs(
    per_layer: int, course: float, rng: np.random.Generator
) -> tuple[AircraftSpec, ...]:
    specs = []
    aid = 0
    for lay in (0, 1, 2):
        for x in np.sort(rng.uniform(0.0, course, per_layer)):
            specs.append(AircraftSpec(aid, lay, x=float(x)))
            aid += 1
    return tuple(specs)


def _baseline(seed: int) -> Scenario:
    course = AirspaceConfig().course_length_m
    return Scenario(
        name="table1-5perlayer",
        aircraft=_even_specs(5, course),
        seed=seed,
    )


def _capacity_airborne(seed: int) -> Scenario:
    sc = _baseline(seed)
    return dataclasses.replace(
        sc,
        name="fig6-airborne",
        phase_mode=PhaseMode.CONTINUOUS,
        ris_mode=RisMode.AIRBORNE,
    )


def _capacity_interference(seed: int) -> Scenario:
    sc = _capacity_airborne(seed)
    channel = dataclasses.replace(
        sc.channel,
        interference_pos=(800.0, 100.0),
        interference_power_w=1.26e-3,
        interference_alpha=2.2,
    )
    return dataclasses.replace(sc, name="fig6-interference", channel=channel)


def _capacity_stationary(seed: int) -> Scenario:
    sc = _capacity_airborne(seed)
    return dataclasses.replace(
        sc, name="fig6-stationary", ris_mode=RisMode.STATIONARY
    )


def _phase_sweep_base(seed: int) -> Scenario:
    sc = _baseline(seed)
    return dataclasses.replace(
        sc,
        name="fig9-phase",
        phase_mode=PhaseMode.QUANTIZED,
        phase_resolution=1.0 / 12.0,
    )


def _flow_convergence(seed: int) -> Scenario:
    """Slow fleet entry, goal pull off: pure flow-field relaxation.

    Layer counts are sized so the even-spacing equilibrium sits at (or just
    inside) the safe separation, where the attraction and repulsion wells
    bottom out near zero; the whole fleet starts 5 m/s under its reference
    speed plus per-aircraft jitter, so the field energy is dominated by the
    decaying velocity terms.
    """
    air = AirspaceConfig()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    counts = {0: 27, 1: 13, 2: 8}
    specs = []
    aid = 0
    for lay in (0, 1, 2):
        for k in range(counts[lay]):
            dv = -5.0 + float(rng.uniform(-2.0, 2.0))
            specs.append(
                AircraftSpec(
                    aid,
                    lay,
                    x=k * air.course_length_m / counts[lay],
                    speed_offset=dv,
                )
            )
            aid += 1
    return Scenario(
        name="fig11-cpf",
        aircraft=tuple(specs),
        weights=dataclasses.replace(FieldWeights(), goal=0.0),
        switching_enabled=False,
        duration_s=30.0,
        seed=seed,
    )


def congestion_scenario(per_layer: int, seed: int, name: str | None = None) -> Scenario:
    """Random uniform placement with ``per_layer`` aircraft in each layer.

    Placement is drawn from the scenario seed, so two runs with the same seed
    see the same traffic.  Densities beyond roughly 16 aircraft in the ground
    layer exceed what the safety separations allow and stay crowded for the
    whole run.
    """
    if per_layer < 1:
        raise ValueError("per_layer must be at least 1")
    air = AirspaceConfig()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return Scenario(
        name=name if name is not None else f"congestion-{per_layer}perlayer",
        aircraft=_random_specs(per_layer, air.course_length_m, rng),
        seed=seed,
    )


def _congestion(seed: int) -> Scenario:
    """Random placement at the baseline density; a few pairs start violated."""
    return congestion_scenario(5, seed, name="fig12-ipr")


def _congestion_dense(seed: int) -> Scenario:
    """Random placement far beyond the layer capacities: permanent crowding."""
    return congestion_scenario(30, seed, name="fig12-ipr-dense")


def _protocol_only(seed: int) -> Scenario:
    sc = _baseline(seed)
    return dataclasses.replace(sc, name="fig5-delay")


BUILTIN = {
    "table1-5perlayer": _baseline,
    "fig6-airborne": _capacity_airborne,
    "fig6-interference": _capacity_interference,
    "fig6-stationary": _capacity_stationary,
    "fig9-phase": _phase_sweep_base,
    "fig11-cpf": _flow_convergence,
    "fig12-ipr": _congestion,
    "fig12-ipr-dense": _congestion_dense,
    "fig5-delay": _protocol_only,
}


def get_scenario(name_or_path: str, seed: int | None = None) -> Scenario:
    """Resolve a builtin name or a scenario file path."""
    if name_or_path in BUILTIN:
        return BUILTIN[name_or_path](seed if seed is not None else 1)
    if os.path.exists(name_or_path):
        sc = load_scenario(name_or_path)
        if seed is not None:
            sc = dataclasses.replace(sc, seed=seed)
        return sc
    known = ", ".join(sorted(BUILTIN))
    raise ValueError(
        f"{name_or_path!r} is neither a scenario file nor a builtin ({known})"
    )
