"""The benchmark's tracer wraps functions by name; every name must exist."""

import importlib
import inspect
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

SWITCHING = (
    "switch_probability", "backoff_step", "optimal_switch_acceleration",
    "switch_acceleration_profile",
)
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_in_its_module():
    """A rename in uamsim must not silently break ``perfbench/run.py --trace 1``."""
    tracing = _tracing()
    missing = [
        f"uamsim.{mod}.{name}"
        for mod, names in tracing.CALL_SITES.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"uamsim.{mod}"), name, None))
    ]
    assert missing == []
    for mod in tracing.WHOLE_MODULES:
        importlib.import_module(f"uamsim.{mod}")
    assert tracing.bindings()


def test_engine_calls_the_separation_and_field_kernel():
    """The engine binds public functions of ``airspace`` and ``fields``, so
    the tracer's whole-module wrappers see the physics the runs execute."""
    engine = importlib.import_module("uamsim.engine")
    for mod in _tracing().WHOLE_MODULES:
        module = importlib.import_module(f"uamsim.{mod}")
        public = {
            name
            for name, obj in inspect.getmembers(module, inspect.isfunction)
            if obj.__module__ == module.__name__ and not name.startswith("_")
        }
        bound = {name for name in public if getattr(engine, name, None) is getattr(module, name)}
        assert bound, f"uamsim.engine calls no public function of uamsim.{mod}"


def test_traced_run_records_the_switching_spans():
    """A short switching run under the benchmark's tracer: every switching
    function the engine binds records spans, and each back-off step's
    outcome is a plain release flag."""
    from uamsim import cli, engine, scenarios  # noqa: F401  (the tracer wraps them)

    tracing = _tracing()
    sc = replace(scenarios.get_scenario("fig12-ipr", seed=1), duration_s=2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        trace = engine.run(sc)
    finally:
        tracer.remove()
    assert tracing.leftover_wrappers() == []
    assert any(e[2] == "LS_REQ" for e in trace.events)
    calls = np.bincount(tracer.arrays()["name"], minlength=len(tracer.names))
    for name in SWITCHING:
        assert calls[tracer.names.index(f"switching.{name}")] > 0, name
    assert set(tracer.outcomes["switching.backoff_step"]) <= {0.0, 1.0}
