"""Repeat benchmark runs over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads quantized-relay,delay-scan --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --trace 1 --out runs.json

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, with
``run_seconds`` from BENCHMARK.json unless ``--seconds`` is given.  For each
metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (q3 - q1) / median next
to the metric's bound.  ``--out`` writes every run's result line to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    return result


def summary(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("nan"),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="range 1-10 or list 1,5,9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = {}
        for seed in parse_seeds(args.seeds):
            runs[seed] = run_once(workload, seed, args.seconds, args.trace)
            if not runs[seed]["correct"]:
                print(f"{workload} seed {seed}: correct=false", flush=True)
        metrics = {}
        for name in runs[next(iter(runs))]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs.values()]
            s = metrics[name] = summary(values) if len(values) > 1 else {"median": values[0]}
            bound = bounds.get(name)
            line = f"{workload:18s} {name:44s} median {s['median']:<12.6g}"
            if "spread" in s:
                line += f" q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}"
            if bound is not None and "spread" in s:
                line += f" bound {bound}"
                if name != "setup_s":
                    worst = max(worst, s["spread"] / bound)
            print(line, flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": metrics}
    if args.trace == 0:
        print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
