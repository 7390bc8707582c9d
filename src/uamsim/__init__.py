"""Desk-scale simulator of a layered low-altitude corridor.

Couples intelligent-surface-assisted air-ground links with flow-field
trajectory control and separation-driven layer switching in one
deterministic tick loop.
"""

from .airspace import (
    AircraftState,
    AirspaceConfig,
    FlightMode,
    conflict,
    horizontal_safe_separation,
    vertical_safe_separation,
)
from .engine import (
    AircraftSpec,
    PhaseMode,
    RisMode,
    Scenario,
    SimTrace,
    composite_field_total,
    ipr,
    ipr_threshold,
    run,
    summarize,
    validate_scenario,
)
from .fields import CollisionError, FieldContext, FieldKind, FieldWeights
from .netcalc import (
    Ccdf,
    ChannelKind,
    ProtocolParams,
    failure_curve,
    failure_probability,
)
from .planner import PlanningQuery, p4_fitness, pso_optimize
from .ris import ChannelParams, PhaseShiftConfig, RowPhases, capacity, optimal_phase_shift, snr
from .scenarios import BUILTIN, get_scenario, load_scenario, save_scenario
from .switching import SwitchAutomaton, SwitchPhase, optimal_switch_acceleration

__all__ = [
    "AircraftSpec",
    "AircraftState",
    "AirspaceConfig",
    "BUILTIN",
    "Ccdf",
    "ChannelKind",
    "ChannelParams",
    "CollisionError",
    "FieldContext",
    "FieldKind",
    "FieldWeights",
    "FlightMode",
    "PhaseMode",
    "PhaseShiftConfig",
    "PlanningQuery",
    "ProtocolParams",
    "RisMode",
    "RowPhases",
    "Scenario",
    "SimTrace",
    "SwitchAutomaton",
    "SwitchPhase",
    "capacity",
    "composite_field_total",
    "conflict",
    "failure_curve",
    "failure_probability",
    "get_scenario",
    "horizontal_safe_separation",
    "ipr",
    "ipr_threshold",
    "load_scenario",
    "optimal_phase_shift",
    "optimal_switch_acceleration",
    "p4_fitness",
    "pso_optimize",
    "run",
    "save_scenario",
    "snr",
    "summarize",
    "validate_scenario",
    "vertical_safe_separation",
]

__version__ = "0.1.0"
