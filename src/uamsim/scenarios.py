"""Built-in traffic scenarios and a flat text format for custom ones.

Scenario files are ``key = value`` lines.  Nested settings use dotted keys
(``airspace.layer_spacing_m = 100``), aircraft rows use
``aircraft.<id> = <layer>,<x>[,<speed_offset>[,<altitude_offset>]]``.
Unknown keys are hard errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import os
import typing
from enum import Enum

import numpy as np

from .airspace import AirspaceConfig, OutOfRange
from .engine import AircraftSpec, PhaseMode, RisMode, Scenario
from .fields import FieldWeights
from .ris import ChannelParams

_SECTIONS = {
    "airspace": AirspaceConfig,
    "channel": ChannelParams,
    "weights": FieldWeights,
}


def _declared_types(cls) -> dict[str, object]:
    """Declared type of each plain setting of a settings dataclass."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: hints[f.name]
        for f in dataclasses.fields(cls)
        if f.name not in _SECTIONS and f.name != "aircraft"
    }


# setting types by key prefix: "" for the top-level fields, else the section
_TYPES = {"": _declared_types(Scenario)} | {
    name: _declared_types(cls) for name, cls in _SECTIONS.items()
}


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# what each plain type expects, for the message when a value does not parse
_EXPECTED = {float: "a number", int: "an integer"}


def _convert(key: str, kind, raw: str):
    """``kind(raw)``, an Enum by its value; a ValueError names ``key``."""
    try:
        return kind(raw)
    except ValueError:
        if issubclass(kind, Enum):
            expected = "one of " + ", ".join(m.value for m in kind)
        else:
            expected = _EXPECTED[kind]
        raise ValueError(f"{key}: expected {expected}, got {raw!r}") from None


def _parse_value(key: str, kind, raw: str):
    """Parse ``raw`` as a value of the declared type ``kind``."""
    if type(None) in typing.get_args(kind):  # X | None
        if raw.lower() == "none":
            return None
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    if typing.get_origin(kind) is tuple and set(typing.get_args(kind)) == {float}:
        parts = raw.split(",")
        if len(parts) != len(typing.get_args(kind)):
            raise ValueError(f"{key}: expected {len(typing.get_args(kind))} numbers")
        return tuple(_convert(key, float, p) for p in parts)
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{key}: expected true or false, got {raw!r}")
    if kind in (float, int, str) or issubclass(kind, Enum):
        return _convert(key, kind, raw)
    raise TypeError(f"{key}: unsupported setting type {kind}")


def _parse_aircraft(aid: int, raw: str) -> AircraftSpec:
    key = f"aircraft.{aid}"
    parts = [p.strip() for p in raw.split(",")]
    if not 2 <= len(parts) <= 4:
        raise ValueError(f"{key}: expected layer,x[,speed_offset[,altitude_offset]]")
    layer = _convert(key, int, parts[0])
    return AircraftSpec(aid, layer, *(_convert(key, float, p) for p in parts[1:]))


def apply_settings(sc: Scenario, items: list[tuple[str, str]]) -> Scenario:
    """Return a scenario with the given dotted-key assignments applied."""
    over: dict[str, dict] = {prefix: {} for prefix in _TYPES}
    craft = {a.aircraft_id: a for a in sc.aircraft}
    for key, raw in items:
        key = key.strip()
        raw = raw.strip()
        prefix, _, name = key.rpartition(".")
        if prefix == "aircraft":
            try:
                aid = int(name)
            except ValueError:
                raise ValueError(f"bad aircraft id in key {key!r}") from None
            craft[aid] = _parse_aircraft(aid, raw)
        elif prefix not in _TYPES or key.startswith("."):
            raise ValueError(f"unknown settings section {prefix!r} in {key!r}")
        elif name not in _TYPES[prefix]:
            raise ValueError(f"unknown setting {key!r}")
        else:
            over[prefix][name] = _parse_value(key, _TYPES[prefix][name], raw)
    sections = {
        name: dataclasses.replace(getattr(sc, name), **over[name])
        for name in _SECTIONS
        if over[name]
    }
    return dataclasses.replace(sc, **over[""], **sections, aircraft=tuple(craft.values()))


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
        for prefix, names in _TYPES.items():
            obj = getattr(sc, prefix) if prefix else sc
            for name in names:
                key = f"{prefix}.{name}" if prefix else name
                fh.write(f"{key} = {_format_value(getattr(obj, name))}\n")
        for a in sc.aircraft:
            fh.write(
                f"aircraft.{a.aircraft_id} = {a.layer},{a.x!r},"
                f"{a.speed_offset!r},{a.altitude_offset!r}\n"
            )


# --- built-in scenarios ----------------------------------------------------


def _roster(counts: tuple[int, ...], seed: int | None = None) -> tuple[AircraftSpec, ...]:
    """``counts[layer]`` aircraft in each layer, ids running on in layer order:
    evenly spaced along the course, or, given ``seed``, drawn uniformly and
    sorted within each layer."""
    course = AirspaceConfig().course_length_m
    if seed is None:
        xs = [np.arange(n) * course / n for n in counts]
    else:
        draws = course * _seeded_draws(seed, sum(counts))
        xs = [np.sort(d) for d in np.split(draws, np.cumsum(counts)[:-1])]
    return tuple(
        AircraftSpec(aid, int(lay), x=float(x))
        for aid, (lay, x) in enumerate(zip(np.repeat((0, 1, 2), counts), np.concatenate(xs)))
    )


def _even(name: str, **settings) -> typing.Callable[[int], Scenario]:
    """A builtin flying five evenly spaced aircraft per layer."""
    return lambda seed: Scenario(name=name, aircraft=_roster((5, 5, 5)), seed=seed, **settings)


def _seeded_draws(seed: int, n: int) -> np.ndarray:
    """The first ``n`` placement draws in [0, 1): 53 bits of each raw PCG64
    output, as ``Generator.random`` takes them.  NEP 19 keeps the raw stream
    stable across NumPy versions, not ``Generator``'s methods."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    raw = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(n)
    return (raw >> np.uint64(11)) * 2.0**-53


def _flow_convergence(seed: int) -> Scenario:
    """Slow fleet entry, goal pull off: pure flow-field relaxation.

    Layer counts are sized so the even-spacing equilibrium sits at (or just
    inside) the safe separation, where the attraction and repulsion wells
    bottom out near zero; the whole fleet starts 5 m/s under its reference
    speed plus per-aircraft jitter, so the field energy is dominated by the
    decaying velocity terms.
    """
    roster = _roster((27, 13, 8))
    jitter = -2.0 + 4.0 * _seeded_draws(seed, len(roster))
    return Scenario(
        name="fig11-cpf",
        aircraft=tuple(
            dataclasses.replace(a, speed_offset=-5.0 + float(j)) for a, j in zip(roster, jitter)
        ),
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
        raise OutOfRange("per_layer", "per_layer must be at least 1")
    return Scenario(
        name=name if name is not None else f"congestion-{per_layer}perlayer",
        aircraft=_roster((per_layer,) * 3, seed),
        seed=seed,
    )


_INTERFERER = ChannelParams(
    interference_pos=(800.0, 100.0), interference_power_w=1.26e-3, interference_alpha=2.2
)

# Each builtin by name, built from its seed.  The congestion builtins look
# congestion_scenario up at call time, so a wrapper bound to it sees them.
BUILTIN = {
    "table1-5perlayer": _even("table1-5perlayer"),
    "fig6-airborne": _even("fig6-airborne", phase_mode=PhaseMode.CONTINUOUS),
    "fig6-interference": _even(
        "fig6-interference", phase_mode=PhaseMode.CONTINUOUS, channel=_INTERFERER
    ),
    "fig6-stationary": _even(
        "fig6-stationary", phase_mode=PhaseMode.CONTINUOUS, ris_mode=RisMode.STATIONARY
    ),
    "fig9-phase": _even("fig9-phase"),
    "fig11-cpf": _flow_convergence,
    # random placement at the baseline density; a few pairs start violated
    "fig12-ipr": lambda seed: congestion_scenario(5, seed, name="fig12-ipr"),
    # random placement far beyond the layer capacities: permanent crowding
    "fig12-ipr-dense": lambda seed: congestion_scenario(30, seed, name="fig12-ipr-dense"),
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
