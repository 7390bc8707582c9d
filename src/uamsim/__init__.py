"""Desk-scale simulator of a layered low-altitude corridor.

Couples intelligent-surface-assisted air-ground links with flow-field
trajectory control and separation-driven layer switching in one
deterministic tick loop.
"""

from .airspace import AirspaceConfig, horizontal_safe_separation
from .engine import (
    AircraftSpec,
    PhaseMode,
    Scenario,
    SimTrace,
    ipr,
    ipr_threshold,
    run,
    summarize,
    validate_scenario,
)
from .fields import CollisionError, FieldWeights
from .netcalc import Ccdf, ChannelKind, ProtocolParams, failure_curve
from .planner import PlanningQuery, pso_optimize
from .ris import ChannelParams, RowPhases, capacity, optimal_phase_shift, snr
from .scenarios import BUILTIN, get_scenario, load_scenario, save_scenario
from .switching import optimal_switch_acceleration

__all__ = [
    "AircraftSpec",
    "AirspaceConfig",
    "BUILTIN",
    "Ccdf",
    "ChannelKind",
    "ChannelParams",
    "CollisionError",
    "FieldWeights",
    "PhaseMode",
    "PlanningQuery",
    "ProtocolParams",
    "RowPhases",
    "Scenario",
    "SimTrace",
    "capacity",
    "failure_curve",
    "get_scenario",
    "horizontal_safe_separation",
    "ipr",
    "ipr_threshold",
    "load_scenario",
    "optimal_phase_shift",
    "optimal_switch_acceleration",
    "pso_optimize",
    "run",
    "save_scenario",
    "snr",
    "summarize",
    "validate_scenario",
]

__version__ = "0.1.0"
