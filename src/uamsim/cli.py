"""Command line front end: run scenarios, sweeps and the delay bounds.

``simulate``, ``phase-sweep``, ``ipr-sweep`` and ``validate`` fly scenarios
and take ``--seed`` and the scenario settings: top-level, ``airspace.``,
``channel.`` and ``weights.`` keys and ``aircraft.<id>`` rows.
``delay-bounds`` flies nothing and takes only ``protocol.<name>`` keys.

Each command first builds and checks every scenario and argument it will
use, and only then writes.  Bad input ends the command before any file is
written: ``error:`` lines for input that cannot be read, ``problem:`` lines
for a scenario that fails validation, and exit status 1.  So each ``cmd_*``
only builds: it returns the scenarios it will run and a function that runs
them and writes, which ``main`` calls once every scenario has validated and
it has made the ``--out`` directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import engine, netcalc, scenarios
from .airspace import OutOfRange
from .engine import PhaseMode

# the option that carries each range-checked argument
_OPTIONS = {"load": "loads", "t_max": "t-max", "grid_dt": "grid-dt", "per_layer": "rosters"}


def _assignment(entry: str) -> tuple[str, str]:
    key, eq, value = entry.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expected key=value, got {entry!r}")
    return key, value


def _scenario(args) -> engine.Scenario:
    return scenarios.apply_settings(scenarios.get_scenario(args.scenario, args.seed), args.set)


def _protocol(items: list[tuple[str, str]]) -> netcalc.ProtocolParams:
    """The delay model's parameters from ``protocol.<name>`` assignments."""
    types = scenarios._declared_types(netcalc.ProtocolParams)
    values = {}
    for key, raw in items:
        key = key.strip()
        prefix, _, name = key.rpartition(".")
        if prefix != "protocol" or name not in types:
            raise ValueError(f"unknown setting {key!r}")
        values[name] = scenarios._parse_value(key, types[name], raw.strip())
    return netcalc.ProtocolParams(**values)


def _numbers(option: str, raw: str, kind: type = float) -> list:
    """The comma list given to ``--option``: finite floats, or ints."""
    try:
        values = [kind(p) for p in raw.replace(" ", "").split(",") if p]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        noun = "integers" if kind is int else "finite numbers"
        raise ValueError(f"--{option}: expected a comma list of {noun}, got {raw!r}")
    return values


def cmd_simulate(args):
    sc = _scenario(args)

    def write() -> int:
        trace = engine.run(sc)
        engine.write_trace(trace, os.path.join(args.out, "trace.csv"))
        engine.write_events(trace, os.path.join(args.out, "events.csv"))
        metrics = engine.summarize(trace)
        engine.write_metrics(metrics, os.path.join(args.out, "metrics.txt"))
        scenarios.save_scenario(sc, os.path.join(args.out, "scenario.txt"))
        for key, value in metrics.items():
            print(f"{key} = {value}")
        print(f"wrote trace.csv, events.csv, metrics.txt, scenario.txt to {args.out}")
        return 0

    return [sc], write


def cmd_delay_bounds(args):
    protocol = _protocol(args.set)
    loads = _numbers("loads", args.loads)
    for load in loads:
        netcalc.check_scan(load, args.t_max, args.grid_dt)

    def write() -> int:
        with open(os.path.join(args.out, "delay_bounds.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("kind,load,t,failure_prob\n")
            for kind in netcalc.ChannelKind:
                for load in loads:
                    curve = netcalc.failure_curve(
                        kind, load, args.t_max, protocol, args.grid_dt
                    )
                    crossing = None
                    for i, p in enumerate(curve.values[1:], start=1):
                        t = i * curve.dt
                        fh.write(f"{kind.value},{load:g},{t:.6f},{p:.9f}\n")
                        if crossing is None and p <= 0.2:
                            crossing = t
                    label = f"{crossing:.3f}s" if crossing is not None else "none"
                    print(
                        f"{kind.value} load={load:g}Mb: delay at failure 0.2 = {label}"
                    )
        print(f"wrote delay_bounds.csv to {args.out}")
        return 0

    return [], write


def _resolution(token: str) -> tuple[PhaseMode, float | None]:
    if token in ("cont", "continuous"):
        return PhaseMode.CONTINUOUS, None
    if token == "zero":
        return PhaseMode.ZERO, None
    num, slash, den = token.partition("/")
    try:
        return PhaseMode.QUANTIZED, (float(num) / float(den) if slash else float(token))
    except ValueError:
        raise ValueError(
            f"--resolutions: expected cont, zero, a number or a fraction like 1/12, got {token!r}"
        ) from None
    except ZeroDivisionError:
        raise ValueError(f"--resolutions: {token!r} divides by zero") from None


def cmd_phase_sweep(args):
    sc = _scenario(args)
    runs = []
    for token in (t for t in args.resolutions.replace(" ", ",").split(",") if t):
        mode, res = _resolution(token)
        resolution = sc.phase_resolution if res is None else res
        runs.append((token, res, dataclasses.replace(sc, phase_mode=mode, phase_resolution=resolution)))
    if not runs:
        raise ValueError(f"--resolutions: expected at least one resolution, got {args.resolutions!r}")

    def write() -> int:
        with open(os.path.join(args.out, "phase_sweep.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("setting,resolution,capacity_mean_bps,capacity_ticks\n")
            for token, res, run_sc in runs:
                trace = engine.run(run_sc)
                served = trace.capacity_bps > 0.0
                mean = float(np.mean(trace.capacity_bps[served])) if served.any() else 0.0
                fh.write(
                    f"{token},{res if res is not None else ''},"
                    f"{mean:.9f},{int(served.sum())}\n"
                )
                print(f"{token}: capacity mean = {mean:.6f}")
        print(f"wrote phase_sweep.csv to {args.out}")
        return 0

    return [run_sc for _, _, run_sc in runs], write


def cmd_ipr_sweep(args):
    thresholds = _numbers("thresholds", args.thresholds)
    seed = args.seed if args.seed is not None else 1
    runs = []
    for per_layer in _numbers("rosters", args.rosters, int):
        # the settings first, so none can switch the off run back on
        sc = scenarios.apply_settings(scenarios.congestion_scenario(per_layer, seed), args.set)
        runs += [(per_layer, True, sc), (per_layer, False, dataclasses.replace(sc, switch_prob=0.0))]

    def write() -> int:
        with open(os.path.join(args.out, "ipr_sweep.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("per_layer,switching,t_dur,ipr\n")
            for per_layer, enabled, sc in runs:
                trace = engine.run(sc)
                flag = "on" if enabled else "off"
                for thr in thresholds:
                    fh.write(
                        f"{per_layer},{flag},{thr:g},{engine.ipr(trace, thr):.6f}\n"
                    )
                print(
                    f"{per_layer}/layer switching {flag}: "
                    f"{len(trace.episodes)} episodes, "
                    f"full prevention above {engine.ipr_threshold(trace):.2f}s"
                )
        print(f"wrote ipr_sweep.csv to {args.out}")
        return 0

    return [sc for _, _, sc in runs], write


def cmd_validate(args):
    sc = _scenario(args)

    def report() -> int:
        print(f"ok: {sc.name} ({len(sc.aircraft)} aircraft, {sc.duration_s:g}s)")
        return 0

    return [sc], report


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first ``main`` call and kept:
    parsing leaves it unchanged, and building it costs more than a parse."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default="out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="uamsim",
        description="Layered airspace simulator with surface-assisted links",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, prepare, help, scenario=None, writes=True, flies=True):
        sub = subs.add_parser(name, help=help, parents=[output] if writes else [])
        flight = "top-level, airspace., channel. or weights. key, or aircraft.<id>"
        keys = flight if flies else "protocol.<name> key"
        sub.add_argument(
            "--set", action="append", default=[], type=_assignment, metavar="KEY=VALUE",
            help=f"override one setting, a {keys} (repeatable)",
        )
        if flies:
            sub.add_argument("--seed", type=int, default=None, help="override the seed")
        if scenario is not None:
            sub.add_argument("--scenario", default=scenario, help="builtin name or scenario file path")
        sub.set_defaults(prepare=prepare)
        return sub

    command("simulate", cmd_simulate, "run one scenario and dump its trace", "table1-5perlayer")
    delay = command(
        "delay-bounds", cmd_delay_bounds,
        "tabulate delay-failure curves per transmission fashion", flies=False,
    )
    delay.add_argument("--loads", default="5,15,25,35", help="loads in Mb")
    delay.add_argument("--t-max", type=float, default=2.0, help="largest budget (s)")
    delay.add_argument("--grid-dt", type=float, default=0.005, help="time grid step")
    phase = command("phase-sweep", cmd_phase_sweep, "capacity across phase resolutions", "fig9-phase")
    phase.add_argument(
        "--resolutions",
        default="zero,1,1/3,1/6,1/12,cont",
        help="comma list of cont, zero or grid fractions of pi like 1/12",
    )
    iprs = command(
        "ipr-sweep", cmd_ipr_sweep,
        "intrusion prevention across traffic densities, switching on and off",
    )
    iprs.add_argument(
        "--rosters", default="5,20,30,50", help="aircraft per layer, comma list"
    )
    iprs.add_argument(
        "--thresholds", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
    )
    command("validate", cmd_validate, "check a scenario without running it", "table1-5perlayer", writes=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        checked, write = args.prepare(args)
    except (ValueError, OSError) as exc:
        option = f"--{_OPTIONS[exc.param]}: " if isinstance(exc, OutOfRange) else ""
        print(f"error: {option}{exc}")
        return 1
    problems = dict.fromkeys(p for sc in checked for p in sc.problems)
    for p in problems:
        print(f"problem: {p}")
    if problems:
        return 1
    if "out" in args:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: {exc}")
            return 1
    return write()


if __name__ == "__main__":
    sys.exit(main())
