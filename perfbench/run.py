"""uamsim benchmark: one closed-loop client timing one workload in host time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``uamsim`` from its
``src/`` directory.  One client thread runs items back to back, each
starting when the previous one ends.  The run sets up the workload, warms
up, then times items for ``--seconds`` seconds, checks every output, and
prints the metrics by name with their units.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the same untimed set-up and warm-up run, then untraced items for
``--seconds`` seconds as the reference, then a fixed number of traced items
with a span around every call into the package's modules; the metrics are
then the per-layer ones, plus the tracing overhead per item.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set before numpy is first imported, so BLAS and OpenMP start one thread.
PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
WORKLOADS = ("quantized-relay", "continuous-relay", "dense-fleet", "delay-scan")
# Untimed warm-up: at least one round and this many seconds.
WARMUP_S = 1.0
# Yardstick seconds that define the reference host speed, and the item time
# between two yardstick readings.
YARDSTICK_REF_S = 0.030
BLOCK_S = 0.5
# Fresh processes timed for setup_s, besides the run's own process.
SETUP_PROBES = 4
# Traced rounds per workload: fixed, so traced call counts repeat exactly.
TRACED_ROUNDS = {
    "quantized-relay": 4,
    "continuous-relay": 8,
    "dense-fleet": 1,
    "delay-scan": 1,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "item_s_p50": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
_TIMED_STATS = ("calls", "total_ms", "p50_us", "p90_us")
_COUNTED_STATS = ("calls", "total_ms")
# (span name, stats) for every per-layer metric that is a plain span statistic.
SPAN_METRICS = (
    ("planner.pso_optimize", _TIMED_STATS),
    ("planner.pso_minimize", ("calls",)),
    *((f"ris.{f}", _TIMED_STATS) for f in ("optimal_phase_shift", "quantize_config", "snr", "capacity")),
    *(
        (f"switching.{f}", _COUNTED_STATS)
        for f in (
            "switch_probability",
            "backoff_step",
            "optimal_switch_acceleration",
            "switch_acceleration_profile",
        )
    ),
    ("engine.run", ("total_ms", "self_ms")),
    *((f"engine.{f}", ("total_ms",)) for f in ("write_trace", "write_events", "write_metrics", "summarize")),
    *(
        (f"scenarios.{f}", _COUNTED_STATS)
        for f in ("get_scenario", "congestion_scenario", "save_scenario", "load_scenario")
    ),
    *(
        (f"netcalc.{f}", _TIMED_STATS)
        for f in ("failure_curve", "min_plus_convolve", "queueing_tail_ccdf", "retransmission_ccdf")
    ),
    ("cli.main", ("self_ms",)),
)
STAT_UNITS = {"calls": "count", "total_ms": "ms", "self_ms": "ms", "p50_us": "us", "p90_us": "us"}
EXTRA_LAYER_UNITS = {
    "planner.pso_optimize.fitness_p50": "rad2",
    "planner.pso_optimize.fitness_max": "rad2",
    "switching.backoff_step.release_ratio": "ratio",
    "engine.write_trace.rows_per_s": "1/s",
    "airspace.calls": "count",
    "fields.calls": "count",
    "bench.trace_overhead_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{span}.{stat}": STAT_UNITS[stat] for span, stats in SPAN_METRICS for stat in stats
    }
    units.update(EXTRA_LAYER_UNITS)
    return units


def import_program():
    """Import uamsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "uamsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no uamsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import uamsim

    if Path(uamsim.__file__).resolve().parent != SRC / "uamsim":
        raise SystemExit(f"error: imported uamsim from {uamsim.__file__}")
    import workloads

    return workloads


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, str]:
    import numpy
    import scipy

    return {
        "nproc": str(os.cpu_count()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "pinned": ",".join(f"{k}={os.environ[k]}" for k in PINNED),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import uamsim and build the workload's inputs in this process,
    scaled to the reference host speed by one yardstick reading after it."""
    t0 = time.perf_counter()
    wl_module = import_program()
    out = OUT / f"probe-{os.getpid()}"
    try:
        wl_module.make(workload, seed, str(out))
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return elapsed * YARDSTICK_REF_S / yardstick()


def probe_in_fresh_process(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup"]
    cmd += ["--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs items in a closed loop, times them, and checks their outputs."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[object, str] = {}

    def item(self, item, tracer=None, index: int = 0) -> float | None:
        """Run one item; its host seconds, or None when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                self.wl.run_item(item)
            else:
                with tracer.span("bench.item", index):
                    self.wl.run_item(item)
        except Exception:
            self._fail(f"item {item.key!r} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - t0
        digest, problems = self.wl.check_item(item)
        if self.digests.setdefault(item.key, digest) != digest:
            problems = problems + [f"rerun of item {item.key!r} is not byte-identical"]
        if problems:
            self._fail("; ".join(problems))
            return None
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def loop(self, seconds: float, rounds: int | None = None, tracer=None):
        """Whole rounds until ``seconds`` have passed, or exactly ``rounds``.

        Returns the item times scaled to the reference host speed, the raw
        item times, and the work done.  The yardstick runs before and after
        each block of about BLOCK_S seconds of items, and a block's items are
        scaled by the mean of the two readings.
        """
        scaled, raw, work = [], [], 0.0
        block: list[float] = []
        before = yardstick()
        start = block_start = time.perf_counter()
        r = 0
        while True:
            for item in self.wl.round(r):
                elapsed = self.item(item, tracer, len(raw) + len(block))
                if elapsed is not None:
                    block.append(elapsed)
                    work += item.work
                if time.perf_counter() - block_start >= BLOCK_S:
                    before = _scale_block(block, before, scaled, raw)
                    block_start = time.perf_counter()
            r += 1
            if rounds is not None:
                if r >= rounds:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        _scale_block(block, before, scaled, raw)
        return scaled, raw, work


def yardstick() -> float:
    """Host seconds for a fixed mix of interpreter loops and small numpy calls.

    On a shared host, speed drifts by tens of percent over seconds as other
    tenants load it.  Timing this fixed work next to the items tracks that
    drift, so item times can be scaled to one reference speed.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(20_000.0)
    for _ in range(150):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def _scale_block(block, before: float, scaled: list, raw: list) -> float:
    """Move a block's item times into ``raw`` and, scaled, into ``scaled``."""
    if not block:
        return before
    after = yardstick()
    factor = YARDSTICK_REF_S / (0.5 * (before + after))
    scaled += [e * factor for e in block]
    raw += block
    block.clear()
    return after


def traced_section(runner, wl, tr, rounds: int):
    """Install the wrappers, trace set-up and items, and remove them again."""
    tracer = tr.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup", -1):
            wl.prepare()
        times, _, _ = runner.loop(0.0, rounds=rounds, tracer=tracer)
    finally:
        tracer.remove()
    return tracer, times


def layer_metrics(tracer, tr, wl, times, ref_times) -> dict[str, float]:
    stats = tr.span_stats(tracer.names, tracer.arrays())
    zero = {"calls": 0.0, "total_ms": 0.0, "self_ms": 0.0, "p50_us": 0.0, "p90_us": 0.0}
    out = {}
    for span, keys in SPAN_METRICS:
        for key in keys:
            out[f"{span}.{key}"] = stats.get(span, zero)[key]
    fitness = tracer.outcomes["planner.pso_optimize"]
    out["planner.pso_optimize.fitness_p50"] = statistics.median(fitness) if fitness else 0.0
    out["planner.pso_optimize.fitness_max"] = max(fitness) if fitness else 0.0
    released = tracer.outcomes["switching.backoff_step"]
    out["switching.backoff_step.release_ratio"] = (
        sum(released) / len(released) if released else 0.0
    )
    wt = stats.get("engine.write_trace", zero)
    rows = wt["calls"] * wl.round(0)[0].work
    out["engine.write_trace.rows_per_s"] = rows / (wt["total_ms"] / 1e3) if wt["calls"] else 0.0
    for mod in tr.WHOLE_MODULES:
        out[f"{mod}.calls"] = sum(s["calls"] for n, s in stats.items() if n.startswith(mod + "."))
    out["bench.trace_overhead_ms"] = 1e3 * (
        statistics.median(times) - statistics.median(ref_times)
    )
    return out


def emit(name: str, value, unit: str = "", note: str = "") -> None:
    text = f"{name} = {value}"
    if unit:
        text += f" {unit}"
    if note:
        text += f"  ({note})"
    print(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.update(PINNED)

    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0

    t0 = time.perf_counter()
    wl_module = import_program()
    wl = wl_module.make(args.workload, args.seed, str(OUT))
    setups = [(time.perf_counter() - t0) * YARDSTICK_REF_S / yardstick()]
    setups += [probe_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    for key, value in environment().items():
        emit(f"env.{key}", value)

    runner = Runner(wl)
    runner.loop(WARMUP_S)
    times, raw, work = runner.loop(args.seconds)
    first_key = wl.round(0)[0].key
    correct = True

    if args.trace == 0:
        if not times:
            for problem in runner.problems:
                emit("error", problem)
            raise SystemExit("error: no item succeeded")
        metrics = {
            "setup_s": statistics.median(setups),
            "item_s_p50": statistics.median(times),
            "work_per_s": work / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        emit("setup_s", f"{metrics['setup_s']:.4f}", "s", f"median of {len(setups)} fresh processes")
        emit("item_s_p50", f"{metrics['item_s_p50']:.4f}", "s", f"n={len(times)} items")
        if len(times) >= 100:
            emit("item_s_p90", f"{statistics.quantiles(times, n=10)[-1]:.6f}", "s", f"n={len(times)} items")
        emit("work_per_s", f"{metrics['work_per_s']:.1f}", "1/s", f"{wl.work_unit} per host second")
        emit(f"{wl.work_unit}_per_s", f"{metrics['work_per_s']:.1f}", "1/s")
        emit("raw.item_s_p50", f"{statistics.median(raw):.4f}", "s", "unscaled host time")
        emit("raw.work_per_s", f"{work / sum(raw):.1f}", "1/s", "unscaled host time")
        emit("host_slowdown", f"{sum(raw) / sum(times):.3f}", "", "raw / scaled item time; 1 is the reference speed")
        emit("peak_rss_mb", f"{metrics['peak_rss_mb']:.1f}", "MB")
    else:
        import tracing as tr

        tracer, traced = traced_section(runner, wl, tr, TRACED_ROUNDS[args.workload])
        leftovers = tr.leftover_wrappers()
        nesting = tr.nesting_problems(tracer.arrays())
        for problem in nesting:
            emit("trace.problem", problem)
        if leftovers:
            emit("trace.problem", "wrappers left installed: " + ", ".join(leftovers))
        correct = not leftovers and not nesting and bool(traced) and bool(times)
        emit("trace.wrappers_removed", "yes" if not leftovers else "no")
        spans_path = OUT / f"{args.workload}-spans.csv"
        tracer.write(str(spans_path))
        emit("trace.spans", len(tracer.span_id), "count", f"written to {spans_path.relative_to(ROOT)}")
        metrics = layer_metrics(tracer, tr, wl, traced, times) if correct else {}
        units = per_layer_units()
        for name in units:
            emit(name, f"{metrics.get(name, 0.0):.6g}", units[name])
        ref = statistics.median(times) if times else float("nan")
        emit(
            "trace.overhead",
            f"{100.0 * (statistics.median(traced) / ref - 1.0):.1f}" if correct else "nan",
            "%",
            f"traced n={len(traced)} vs untraced n={len(times)} items",
        )
        spans = tracer.arrays()
        for parent in ("engine.run", "bench.item"):
            for name, ms in tr.children_ms(tracer.names, spans, parent):
                emit(f"trace.child {parent} > {name}", f"{ms:.1f}", "ms")

    failed = runner.failed
    emit("error_rate", f"{failed / runner.attempted:.6f}", "", f"{failed} of {runner.attempted} items")
    for problem in runner.problems:
        emit("error", problem)
    if first_key in runner.digests:
        for key, value in wl.sim_lines(runner.digests[first_key]).items():
            emit(f"sim.{key}", value)
    correct = correct and failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
