"""Spans around the calls into uamsim's modules, recorded from outside the package.

Each target function is replaced, in every ``uamsim`` module namespace that
binds it, by a wrapper that records one span per call: name, start, end,
parent span and item id.  Wrapping the binding the caller looks the function
up by is what makes a call visible; for example the engine calls
``pso_optimize`` through ``uamsim.engine.pso_optimize``.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# Bindings wrapped, keyed by the module namespace the caller looks them up
# in.  The engine reaches the planner, surface and switching functions
# through its own namespace, so a call the planner makes to its own
# pso_minimize is not counted as one from the engine.
CALL_SITES = {
    "cli": ("main",),
    "scenarios": ("get_scenario", "congestion_scenario", "save_scenario", "load_scenario"),
    "engine": (
        "run",
        "write_trace",
        "write_events",
        "write_metrics",
        "summarize",
        "pso_optimize",
        "pso_minimize",
        "optimal_phase_shift",
        "quantize_config",
        "snr",
        "capacity",
        "switch_probability",
        "backoff_step",
        "optimal_switch_acceleration",
        "switch_acceleration_profile",
    ),
    "netcalc": ("failure_curve", "min_plus_convolve", "queueing_tail_ccdf", "retransmission_ccdf"),
}
# Modules whose public functions are all wrapped and counted together.
WHOLE_MODULES = ("airspace", "fields")
# Return values kept per call: the planner's fitness and the back-off release.
OUTCOMES = {
    "planner.pso_optimize": lambda result: float(result[1]),
    "switching.backoff_step": lambda result: float(bool(result)),
}
_MARK = "__perfbench_span__"


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "uamsim" or name.startswith("uamsim."))
    ]


def span_name(fn) -> str:
    """``module.function`` after the module that defines ``fn``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def bindings() -> list[tuple[object, str, object]]:
    """Every (namespace, attribute, function) the tracer wraps."""
    out = []
    for mod, names in CALL_SITES.items():
        module = sys.modules[f"uamsim.{mod}"]
        out += [(module, name, getattr(module, name)) for name in names]
    whole = {
        id(obj)
        for mod in WHOLE_MODULES
        for name, obj in inspect.getmembers(sys.modules[f"uamsim.{mod}"], inspect.isfunction)
        if obj.__module__ == f"uamsim.{mod}" and not name.startswith("_")
    }
    for module in _package_modules():
        out += [(module, attr, v) for attr, v in list(vars(module).items()) if id(v) in whole]
    return out


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers again."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.item = array("q")
        self.start = array("q")
        self.end = array("q")
        self.outcomes: dict[str, list[float]] = {k: [] for k in OUTCOMES}
        self.current_item = -1
        self._next = 0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, sid: int, parent: int, nid: int, t0: int, t1: int) -> None:
        self.span_id.append(sid)
        self.parent.append(parent)
        self.name.append(nid)
        self.item.append(self.current_item)
        self.start.append(t0)
        self.end.append(t1)

    def _wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)
        outcome = OUTCOMES.get(span_name)
        sink = self.outcomes.get(span_name)
        stack = self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                record(sid, parent, nid, t0, t1)
            if outcome is not None:
                sink.append(outcome(result))
            return result

        setattr(wrapper, _MARK, span_name)
        return wrapper

    @contextmanager
    def span(self, span_name: str, item: int):
        """A span opened by the benchmark itself, such as one whole item."""
        self.current_item = item
        nid = self._name_id(span_name)
        sid = self._next
        self._next = sid + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self._record(sid, parent, nid, t0, t1)

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("wrappers are already installed")
        wrappers: dict[int, object] = {}
        for module, attr, fn in bindings():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, span_name(fn))
            setattr(module, attr, wrappers[id(fn)])
            self._bindings.append((module, attr, fn))

    def remove(self) -> None:
        for module, attr, fn in self._bindings:
            setattr(module, attr, fn)
        self._bindings = []

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "span_id": np.array(self.span_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "item": np.array(self.item, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        a = self.arrays()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span_id,parent,item,name,start_ns,end_ns\n")
            for i in range(len(a["span_id"])):
                fh.write(
                    f"{a['span_id'][i]},{a['parent'][i]},{a['item'][i]},"
                    f"{self.names[a['name'][i]]},{a['start'][i]},{a['end'][i]}\n"
                )


def leftover_wrappers() -> list[str]:
    """Every ``module.attr`` in the package that still holds a span wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, _MARK)
    ]


def _rows(a: dict[str, np.ndarray]) -> np.ndarray:
    """Row of each span id; ids are handed out from 0 with no gaps."""
    rows = np.empty(len(a["span_id"]), dtype=np.int64)
    rows[a["span_id"]] = np.arange(len(rows))
    return rows


def nesting_problems(a: dict[str, np.ndarray]) -> list[str]:
    """Children must lie inside their parent span and share its item id."""
    child = np.nonzero(a["parent"] >= 0)[0]
    parent = _rows(a)[a["parent"][child]]
    start, end, item = a["start"], a["end"], a["item"]
    outside = (start[child] < start[parent]) | (end[child] > end[parent])
    other_item = item[child] != item[parent]
    problems = [f"span {a['span_id'][i]}: outside its parent" for i in child[outside][:5]]
    problems += [
        f"span {a['span_id'][i]}: item differs from its parent" for i in child[other_item][:5]
    ]
    return problems


def self_times_ns(a: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Calls run on one thread, so the children of one span never overlap.
    """
    dur = a["end"] - a["start"]
    child = a["parent"] >= 0
    covered = np.zeros(len(dur), dtype=np.int64)
    np.add.at(covered, _rows(a)[a["parent"][child]], dur[child])
    return dur - covered


def span_stats(names: list[str], a: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Calls, total and self time, and per-call percentiles for each span name."""
    dur = a["end"] - a["start"]
    own = self_times_ns(a)
    stats = {}
    for nid, name in enumerate(names):
        sel = a["name"] == nid
        d = dur[sel]
        stats[name] = {
            "calls": float(len(d)),
            "total_ms": float(d.sum()) / 1e6,
            "self_ms": float(own[sel].sum()) / 1e6,
            "p50_us": float(np.percentile(d, 50)) / 1e3 if len(d) else 0.0,
            "p90_us": float(np.percentile(d, 90)) / 1e3 if len(d) else 0.0,
        }
    return stats


def children_ms(names: list[str], a: dict[str, np.ndarray], parent: str) -> list[tuple[str, float]]:
    """Total milliseconds of each kind of direct child of the spans named ``parent``."""
    if parent not in names:
        return []
    child = np.nonzero(a["parent"] >= 0)[0]
    child = child[a["name"][_rows(a)[a["parent"][child]]] == names.index(parent)]
    dur = a["end"][child] - a["start"][child]
    totals = {
        names[nid]: float(dur[a["name"][child] == nid].sum()) / 1e6
        for nid in np.unique(a["name"][child])
    }
    return sorted(totals.items(), key=lambda kv: -kv[1])
