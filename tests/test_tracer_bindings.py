"""The benchmark's tracer wraps functions by name; every name must exist."""

import importlib
import inspect
import importlib.util
from pathlib import Path

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
