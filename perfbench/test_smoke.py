"""Smoke test of the benchmark itself; not part of the package's test suite.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at its shortest length (``--seconds 1``: one timed
round), untraced and traced, and checks that each metric BENCHMARK.json
names is printed with its unit, that traced spans nest, and that the
wrappers are gone after a traced section.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402


def read_spans(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cols = {"span_id": "span_id", "parent": "parent", "item": "item", "start": "start_ns", "end": "end_ns"}
    return {k: np.array([int(r[c]) for r in rows], dtype=np.int64) for k, c in cols.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", "3", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line for line in lines), m
    assert any(line.startswith("sim.sha256 = ") for line in lines)
    assert any(line.startswith("env.commit = ") for line in lines)
    if trace:
        assert "trace.wrappers_removed = yes" in lines
        spans = read_spans(ROOT / ".perfbench_out" / f"{workload}-spans.csv")
        assert len(spans["span_id"]) > 1
        assert tracing.nesting_problems(spans) == []


def test_tracer_nests_spans_and_removes_every_wrapper(tmp_path):
    from uamsim import cli, engine, netcalc

    before = tracing.bindings()
    planner_fn = engine.pso_optimize
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine.pso_optimize is not planner_fn
        assert tracing.leftover_wrappers()
        with tracer.span("bench.item", 0):
            cli.main(["simulate", "--scenario", "fig9-phase", "--set", "duration_s=1",
                      "--out", str(tmp_path)])
        with tracer.span("bench.item", 1):
            netcalc.failure_curve(netcalc.ChannelKind.RIS, 20.0, 1.5, netcalc.ProtocolParams())
    finally:
        tracer.remove()
    assert tracing.leftover_wrappers() == []
    assert all(getattr(m, a) is f for m, a, f in before)

    spans = tracer.arrays()
    assert tracing.nesting_problems(spans) == []
    names = [tracer.names[i] for i in spans["name"]]
    for expected in ("cli.main", "engine.run", "planner.pso_optimize", "netcalc.min_plus_convolve"):
        assert expected in names
    # The planner's own call to pso_minimize goes through planner's namespace.
    assert "planner.pso_minimize" not in names
    own = tracing.self_times_ns(spans)
    assert (own >= 0).all() and (own <= spans["end"] - spans["start"]).all()
