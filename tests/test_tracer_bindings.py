"""The benchmark's tracer wraps functions by name; every name must exist."""

import importlib
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
