"""The benchmark's workloads: inputs from a seed, one item at a time, output checks.

A workload is built from the workload seed alone and hands the program only
the inputs it generated.  Its items are grouped in rounds; the runner stops
timing only at a round boundary, so every run sees the same mix of items.

``uamsim`` must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import random

from uamsim import cli, netcalc, scenarios

# Tolerance on recorded speeds: trace.csv rounds vx and vy to 6 decimals.
SPEED_TOL = 1e-5
ARTIFACTS = ("trace.csv", "events.csv", "metrics.txt", "scenario.txt")
COUNT_KEYS = ("switch_requests", "conflict_episodes", "capacity_ticks", "capacity_mean")


class Item:
    """One unit of closed-loop work; items with equal keys must give equal bytes."""

    __slots__ = ("key", "work", "payload")

    def __init__(self, key, work: float, payload) -> None:
        self.key = key
        self.work = work
        self.payload = payload


class SimulateWorkload:
    """``uamsim simulate`` run in-process through ``cli.main``, artifacts written."""

    work_unit = "aircraft_ticks"

    def __init__(self, name: str, seed: int, out_dir: str) -> None:
        self.name = name
        self.seed = seed
        self.out = os.path.join(out_dir, name)
        os.makedirs(self.out, exist_ok=True)
        self._checked: dict[str, tuple[list[str], dict[str, str]]] = {}
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Item]:
        raise NotImplementedError

    def run_item(self, item: Item) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(item.payload)
        if status != 0:
            raise RuntimeError(f"uamsim simulate exited with {status}")

    def check_item(self, item: Item) -> tuple[str, list[str]]:
        """Digest of the written artifacts and the invariants they break."""
        h = hashlib.sha256()
        for name in ARTIFACTS:
            h.update(name.encode())
            with open(os.path.join(self.out, name), "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        digest = h.hexdigest()
        if digest not in self._checked:
            self._checked[digest] = (self._invariants(), self._counts())
        return digest, self._checked[digest][0]

    def _invariants(self) -> list[str]:
        max_speed = None
        with open(os.path.join(self.out, "scenario.txt"), encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition("=")
                if key.strip() == "airspace.max_speed_mps":
                    max_speed = float(value)
        if max_speed is None:
            return ["scenario.txt has no airspace.max_speed_mps"]
        problems = []
        rows = 0
        with open(os.path.join(self.out, "trace.csv"), encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                f = line.split(",")
                rows += 1
                if math.hypot(float(f[4]), float(f[5])) > max_speed + SPEED_TOL:
                    problems.append(f"speed above {max_speed} at t={f[0]} id={f[1]}")
                cap = float(f[8])
                if not (math.isfinite(cap) and cap >= 0.0):
                    problems.append(f"capacity {cap} at t={f[0]} id={f[1]}")
                if len(problems) >= 5:
                    break
        if rows == 0:
            problems.append("trace.csv has no rows")
        return problems

    def _counts(self) -> dict[str, str]:
        counts = {}
        with open(os.path.join(self.out, "metrics.txt"), encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(" = ")
                if key in COUNT_KEYS:
                    counts[key] = value.strip()
        return counts

    def sim_lines(self, first_digest: str) -> dict[str, str]:
        """Exact simulated results of the first item, for comparing commits."""
        return {"sha256": first_digest, **self._checked[first_digest][1]}

    def _argv(self, scenario: str, seed: int | None) -> list[str]:
        argv = ["simulate", "--scenario", scenario, "--out", self.out]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return argv


class RelayWorkload(SimulateWorkload):
    """A builtin relay scenario, one item per scenario seed."""

    def __init__(self, name: str, scenario: str, seed: int, out_dir: str) -> None:
        self.scenario = scenario
        super().__init__(name, seed, out_dir)

    def prepare(self) -> None:
        sc = scenarios.get_scenario(self.scenario, 1)
        self.work = len(sc.aircraft) * int(round(sc.duration_s / sc.dt))
        self._rng = random.Random(self.seed)
        self._seeds: list[int] = []

    def round(self, r: int) -> list[Item]:
        while len(self._seeds) <= r:
            self._seeds.append(self._rng.randrange(1, 2**31))
        s = self._seeds[r]
        return [Item(s, self.work, self._argv(self.scenario, s))]


class DenseFleetWorkload(SimulateWorkload):
    """The 300-per-layer fleet, built from the seed and run from a scenario file.

    The fleet flies 10 s instead of the default 40 s: the fleet is crowded
    from the first tick, and shorter items give a run enough of them for a
    steady median.
    """

    PER_LAYER = 300
    DURATION_S = 10.0

    def prepare(self) -> None:
        sc = scenarios.congestion_scenario(self.PER_LAYER, self.seed)
        sc = dataclasses.replace(sc, duration_s=self.DURATION_S)
        self.path = os.path.join(self.out, "fleet-scenario.txt")
        scenarios.save_scenario(sc, self.path)
        self.work = len(sc.aircraft) * int(round(sc.duration_s / sc.dt))

    def round(self, r: int) -> list[Item]:
        return [Item("fleet", self.work, self._argv(self.path, None))]


class DelayScanWorkload:
    """The criterion-3 scan: one failure curve per item, 1.5 s budget, 0.005 s grid.

    A round is the whole scan in an order shuffled from the seed.
    """

    work_unit = "curves"
    BUDGET_S = 1.5
    GRID_DT = 0.005
    SATURATION = 0.999
    FAILURE_LEVEL = 0.2

    def __init__(self, name: str, seed: int, out_dir: str) -> None:
        self.name = name
        self.seed = seed
        self.prepare()

    def prepare(self) -> None:
        kinds = netcalc.ChannelKind
        # Load grids walked by acceptance criterion 3: (a) 5 and 39 Mb are on
        # the (b) grid; (b) 1..79 Mb for every fashion; (c) 0.5..59.75 Mb in
        # 0.25 Mb steps for the direct and surface-assisted fashions.
        self.sat_grid = [float(x) for x in range(1, 80)]
        self.level_grid = [0.5 + 0.25 * i for i in range(238)]
        keys = {(k, load) for k in kinds for load in self.sat_grid}
        keys |= {(k, load) for k in (kinds.DIRECT, kinds.RIS) for load in self.level_grid}
        self.keys = sorted(keys, key=lambda kl: (kl[0].value, kl[1]))
        self.params = netcalc.ProtocolParams()
        self.p_budget: dict[tuple, float] = {}
        self.digests: dict[tuple, str] = {}

    def round(self, r: int) -> list[Item]:
        order = list(self.keys)
        random.Random(f"{self.seed}/{r}").shuffle(order)
        return [Item(key, 1, key) for key in order]

    def run_item(self, item: Item) -> None:
        kind, load = item.payload
        self._curve = netcalc.failure_curve(
            kind, load, self.BUDGET_S, self.params, self.GRID_DT
        )

    def check_item(self, item: Item) -> tuple[str, list[str]]:
        v = self._curve.values
        problems = []
        if not (v.min() >= 0.0 and v.max() <= 1.0):
            problems.append(f"{item.key}: curve leaves [0, 1]")
        if (v[1:] > v[:-1]).any():
            problems.append(f"{item.key}: curve increases")
        digest = hashlib.sha256(v.tobytes()).hexdigest()
        self.p_budget[item.key] = self._curve.at(self.BUDGET_S)
        self.digests.setdefault(item.key, digest)
        return digest, problems

    def sim_lines(self, first_digest: str) -> dict[str, str]:
        """Digest of the whole scan and the criterion-3 loads derived from it."""
        h = hashlib.sha256()
        for key in self.keys:
            h.update(self.digests[key].encode())
        out = {"sha256": h.hexdigest()}
        for kind in netcalc.ChannelKind:
            out[f"saturation_load_{kind.value}"] = _first_load(
                self.p_budget, kind, self.sat_grid, self.SATURATION
            )
        for kind in (netcalc.ChannelKind.DIRECT, netcalc.ChannelKind.RIS):
            out[f"failure_0.2_load_{kind.value}"] = _first_load(
                self.p_budget, kind, self.level_grid, self.FAILURE_LEVEL
            )
        return out


def _first_load(p_budget, kind, grid, level) -> str:
    for load in grid:
        if p_budget[(kind, load)] >= level:
            return repr(load)
    return "none"


def make(name: str, seed: int, out_dir: str):
    if name == "quantized-relay":
        return RelayWorkload(name, "fig9-phase", seed, out_dir)
    if name == "continuous-relay":
        return RelayWorkload(name, "fig6-airborne", seed, out_dir)
    if name == "dense-fleet":
        return DenseFleetWorkload(name, seed, out_dir)
    if name == "delay-scan":
        return DelayScanWorkload(name, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")

