"""End-to-end acceptance checks, one test per criterion.

Every test times itself against the stated budget and prints a single
``[PASS]``/``[FAIL]`` line (visible under ``pytest -s`` and in failure
output).  Tolerances are stated inline next to each check.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import field_reference
from uamsim import fields, scenarios
from uamsim.airspace import AirspaceConfig, fleet_state, horizontal_safe_separation
from uamsim.engine import (
    MODE_SWITCHING,
    PhaseMode,
    ipr_threshold,
    run,
    summarize,
    write_metrics,
    write_trace,
)
from uamsim.netcalc import ChannelKind, ProtocolParams, failure_curve
from uamsim.ris import (
    ChannelParams,
    RowPhases,
    capacity,
    cascaded_gain,
    cascaded_gain_bound,
    direct_gain,
    interference_at,
    optimal_phase_shift,
)
from uamsim.switching import optimal_switch_acceleration


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_criterion_01_phase_alignment_reaches_the_bound():
    """Optimal phases hit L*beta/sqrt(d1^a1 d2^a2) to 1e-9 and dominate
    100 random phase draws per geometry, over 10^4 geometries."""
    t0 = time.time()
    par = ChannelParams()
    rng = np.random.default_rng(20260801)
    sizes = (4, 9, 16)
    worst_rel = 0.0
    dominated = True
    for g in range(10000):
        n = sizes[g % 3]
        bs = (float(rng.uniform(-500.0, 500.0)), 0.0)
        ris = (float(rng.uniform(0.0, 2000.0)), 100.0)
        k = (float(rng.uniform(0.0, 2000.0)), 200.0)
        phases = optimal_phase_shift(bs, ris, k, n)
        got = abs(cascaded_gain(bs, ris, k, phases, par))
        bound = cascaded_gain_bound(bs, ris, k, n, par)
        worst_rel = max(worst_rel, abs(got - bound) / bound)

        # random draws, vectorized with the same element model
        d1 = math.hypot(ris[0] - bs[0], ris[1] - bs[1])
        d2 = math.hypot(k[0] - ris[0], k[1] - ris[1])
        cos_in = (ris[0] - bs[0]) / d1
        cos_out = (k[0] - ris[0]) / d2
        u = np.arange(n) % math.isqrt(n)
        theta = rng.uniform(0.0, 2.0 * math.pi - 1e-9, size=(100, n))
        sums = np.abs(
            np.exp(1j * (math.pi * u * (cos_in - cos_out) + theta)).sum(axis=1)
        )
        draws = bound / n * sums
        if np.any(draws > bound * (1.0 + 1e-12)):
            dominated = False
        if g % 1000 == 0:
            # tie the vectorized draw model back to the public function on a
            # row-structured draw: element l takes the phase of row l mod sqrt(n)
            rows = theta[0, : math.isqrt(n)]
            tiled = np.exp(1j * (math.pi * u * (cos_in - cos_out) + np.tile(rows, math.isqrt(n))))
            direct = abs(cascaded_gain(bs, ris, k, RowPhases(rows), par))
            assert direct == pytest.approx(bound / n * abs(tiled.sum()), rel=1e-12)
    wall = time.time() - t0
    ok = worst_rel < 1e-9 and dominated and wall < 30.0
    _verdict(
        ok,
        "criterion 1",
        f"worst bound gap {worst_rel:.2e} (tol 1e-9), random draws dominated: "
        f"{dominated}, wall {wall:.1f}s (< 30s)",
    )
    assert worst_rel < 1e-9
    assert dominated
    assert wall < 30.0


def test_criterion_02_switch_kinematics_identities():
    """10^4 random manoeuvres satisfy dv=ax*t, H=ay*t^2/4, ax^2+ay^2=a^2
    to 1e-9; the worked point lands on (1.6306, 4.7267, 9.20 s)."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10000):
        dv = float(rng.uniform(-30.0, 30.0))
        height = float(rng.uniform(50.0, 200.0))
        amax = float(rng.uniform(1.0, 10.0))
        plan = optimal_switch_acceleration(0.0, dv, height, amax)
        t = plan.duration
        worst = max(
            worst,
            abs(plan.ax * t - dv) / max(1.0, abs(dv)),
            abs(plan.ay * t * t / 4.0 - height) / height,
            abs(plan.ax**2 + plan.ay**2 - amax * amax) / (amax * amax),
        )
    plan = optimal_switch_acceleration(45.0, 60.0, 100.0, 5.0)
    point_ok = (
        abs(plan.ay - 4.7267) < 1e-3
        and abs(plan.ax - 1.6306) < 1e-3
        and abs(plan.duration - 9.20) < 5e-3
    )
    wall = time.time() - t0
    ok = worst < 1e-9 and point_ok and wall < 5.0
    _verdict(
        ok,
        "criterion 2",
        f"worst residual {worst:.2e} (tol 1e-9), worked point ax={plan.ax:.4f} "
        f"ay={plan.ay:.4f} t={plan.duration:.4f}, wall {wall:.1f}s (< 5s)",
    )
    assert worst < 1e-9
    assert point_ok
    assert wall < 5.0


def test_criterion_03_delay_bound_landscape():
    """Channel orderings and saturation loads of the delay-failure bounds
    at a 1.5 s budget on the 0.005 s grid.  Sub-check (c) measures the load
    gain of the dual-plane surface scheme: the Ris/Direct ratio of the loads
    at which the failure bound first reaches 0.2, required in [1.25, 1.55]."""
    t0 = time.time()
    par = ProtocolParams()
    budget = 1.5

    # (a) light-load and heavy-load orderings
    light = {k: failure_curve(k, 5.0, budget, par).at(budget) for k in ChannelKind}
    heavy = {k: failure_curve(k, 39.0, budget, par).at(budget) for k in ChannelKind}
    a_ok = (
        min(light, key=light.get) is ChannelKind.CONTROL
        and min(heavy, key=heavy.get) is ChannelKind.RIS
    )
    _verdict(
        a_ok,
        "criterion 3a",
        "Control cheapest at load 5, Ris cheapest at load 39: "
        f"{[f'{k.value}={light[k]:.2e}' for k in ChannelKind]} / "
        f"{[f'{k.value}={heavy[k]:.3f}' for k in ChannelKind]}",
    )

    # (b) saturation-to-1 loads, band +-20% around (30, 32, 45) Mb
    sats = {}
    for kind in ChannelKind:
        sats[kind] = next(
            (
                float(load)
                for load in np.arange(1.0, 80.0, 1.0)
                if failure_curve(kind, float(load), budget, par).at(budget) >= 0.999
            ),
            None,
        )
    bands = {
        ChannelKind.CONTROL: (30.0 * 0.8, 30.0 * 1.2),
        ChannelKind.DIRECT: (32.0 * 0.8, 32.0 * 1.2),
        ChannelKind.RIS: (45.0 * 0.8, 45.0 * 1.2),
    }
    b_ok = all(
        sats[k] is not None and bands[k][0] <= sats[k] <= bands[k][1]
        for k in ChannelKind
    ) and (sats[ChannelKind.CONTROL] < sats[ChannelKind.DIRECT] < sats[ChannelKind.RIS])
    _verdict(
        b_ok,
        "criterion 3b",
        f"saturation loads {[sats[k] for k in ChannelKind]} vs bands "
        f"{[bands[k] for k in ChannelKind]}",
    )

    # (c) loads at failure probability 0.2: Ris / Direct in [1.25, 1.55]
    c02 = {}
    for kind in (ChannelKind.DIRECT, ChannelKind.RIS):
        c02[kind] = next(
            (
                float(load)
                for load in np.arange(0.5, 60.0, 0.25)
                if failure_curve(kind, float(load), budget, par).at(budget) >= 0.2
            ),
            None,
        )
    ratio = c02[ChannelKind.RIS] / c02[ChannelKind.DIRECT]
    c_ok = 1.25 <= ratio <= 1.55
    _verdict(
        c_ok,
        "criterion 3c",
        f"0.2-failure loads Direct={c02[ChannelKind.DIRECT]:.2f} Mb, "
        f"Ris={c02[ChannelKind.RIS]:.2f} Mb, ratio {ratio:.3f} vs [1.25, 1.55]",
    )

    wall = time.time() - t0
    _verdict(
        a_ok and b_ok and c_ok,
        "criterion 3",
        f"a={a_ok} b={b_ok} c={c_ok}, wall {wall:.1f}s (< 120s)",
    )
    assert wall < 120.0
    assert a_ok
    assert b_ok
    assert c_ok, (
        f"the surface-assisted fashion carries {ratio:.2f}x the direct load at "
        "failure probability 0.2, outside [1.25, 1.55]"
    )


def test_criterion_04_field_gradients_match_finite_differences():
    """The kernel's gradients of all five fields vs central differences of
    their reference values (step 1e-5) at 1000 random interior states, 1e-5
    relative.  Each state is a three-aircraft layer: the subject, a
    neighbour behind it inside its separation, and its preceding aircraft
    ahead, every second state more than half the course ahead."""
    t0 = time.time()
    rng = np.random.default_rng(777)
    air = AirspaceConfig()
    radius = 300.0
    eps = 1e-5
    worst = 0.0
    states = far = 0
    while states < 1000:
        x = float(rng.uniform(1.0, 1999.0))
        h = float(rng.uniform(5.0, 245.0))
        # keep clear of the layer-well branch edges at 50 and 150
        if min(abs(h - 50.0), abs(h - 150.0)) < 1.0:
            continue
        vx = float(rng.uniform(20.0, 60.0))
        vy = float(rng.uniform(-3.0, 3.0))
        sep = float(horizontal_safe_separation(math.hypot(vx, vy), air))
        if states % 2:
            lead = float(rng.uniform(1010.0, 1700.0))
        else:
            lead = sep + float(rng.uniform(10.0, 200.0))
        far += lead > air.course_length_m / 2.0
        behind = float(rng.uniform(8.0, sep - 5.0))
        others = (
            ((x + lead) % 2000.0, h + float(rng.uniform(-20.0, 20.0)), 45.0, 0.0),
            ((x - behind) % 2000.0, h + float(rng.uniform(-2.0, 2.0)), 45.0, 0.0),
        )
        goals = fields.Goals(np.array([0]), np.array([rng.uniform(0, 2000)]))
        rng.uniform(0, 200)  # the goal altitude, unused: drawn so the sampled states stay the same

        def fleet(dx=0.0, dh=0.0, dvx=0.0, dvy=0.0):
            rows = ((x + dx, h + dh, vx + dvx, vy + dvy),) + others
            cx, ch, cvx, cvy = (np.array(c) for c in zip(*rows))
            return fleet_state(
                cx, ch, cvx, cvy, np.ones(3, dtype=int), np.ones(3, dtype=bool),
                np.arange(3), air,
            )

        def values(f):
            band = fields.neighbour_band(f, air, radius)
            return (
                field_reference.attract_value(f)[0],
                field_reference.stabilize_value(f, air)[0],
                field_reference.repulse_value(f, band)[0],
                field_reference.layer_value(f)[0],
                field_reference.goal_value(f, goals, air)[0],
            )

        base = fleet()
        band = fields.neighbour_band(base, air, radius)
        grads = (
            fields.attract_gradient(base),
            fields.stabilize_gradient(base, air),
            fields.repulse_gradient(base, band),
            fields.layer_gradient(base),
            fields.goal_gradient(base, goals, air),
        )
        step = {
            k: np.array(values(fleet(**{k: eps}))) - np.array(values(fleet(**{k: -eps})))
            for k in ("dx", "dh", "dvx", "dvy")
        }
        # the stabilizer (second) is differentiated in velocity
        for kind, (gx, gh) in enumerate(grads):
            var = ("dvx", "dvy") if kind == 1 else ("dx", "dh")
            num = np.array([step[var[0]][kind], step[var[1]][kind]]) / (2 * eps)
            grad = np.array([gx[0], gh[0]])
            denom = max(float(np.hypot(*num)), 1e-12)
            rel = float(np.hypot(*(grad - num))) / denom
            if float(np.hypot(*num)) > 1e-7:  # direction defined
                worst = max(worst, rel)
        states += 1
    wall = time.time() - t0
    ok = worst < 1e-5 and wall < 5.0 and far > 0
    _verdict(
        ok,
        "criterion 4",
        f"worst relative gradient error {worst:.2e} over {states} states, {far} "
        f"with the preceding aircraft past half the course (tol 1e-5), "
        f"wall {wall:.1f}s (< 5s)",
    )
    assert worst < 1e-5
    assert far > 0
    assert wall < 5.0


def test_criterion_05_speed_regulation_on_even_rings():
    """After a 10 s transient the evenly seeded fleet holds each layer's
    cruise speed within +-1 m/s and keeps |vy| under 1 m/s outside
    manoeuvres, over the full 40 s run."""
    sc = scenarios.get_scenario("table1-5perlayer")
    tr = run(sc)
    late = (tr.t > 10.0)[:, None] & (tr.mode != MODE_SWITCHING)
    refs = np.array([30.0, 45.0, 60.0])
    dev = np.abs(tr.vx[late] - refs[tr.layer[late]])
    vy = np.abs(tr.vy[tr.mode != MODE_SWITCHING])
    ok = float(np.max(dev)) < 1.0 and float(np.max(vy)) < 1.0
    _verdict(
        ok,
        "criterion 5",
        f"max |vx - ref| after 10s = {np.max(dev):.4f} (< 1), "
        f"max |vy| = {np.max(vy):.4f} (< 1)",
    )
    assert np.max(dev) < 1.0
    assert np.max(vy) < 1.0


def test_criterion_06_flow_field_contracts():
    """With the goal term off, the fleet-wide field total at 20 s sits
    below 5% of its value at 2 s."""
    sc = scenarios.get_scenario("fig11-cpf")
    assert sc.weights.goal == 0.0
    tr = run(sc)
    tot = field_reference.composite_field_total(tr)
    i2 = int(round(2.0 / sc.dt))
    i20 = int(round(20.0 / sc.dt))
    ratio = float(tot[i20] / tot[i2])
    ok = ratio < 0.05
    _verdict(
        ok,
        "criterion 6",
        f"field total {tot[i2]:.3f} at 2s -> {tot[i20]:.4f} at 20s, "
        f"ratio {ratio:.4f} (< 0.05)",
    )
    assert ok


def test_criterion_07_intrusion_prevention_thresholds():
    """Switching must clear congestion quickly: over ten seeds the mean
    full-prevention threshold for 5/layer with switching lies in
    [0.1 s, 0.5 s], is at most half the non-switching value, and the
    30/layer switching threshold stays above 0.8 s."""
    t0 = time.time()
    means = {}
    for per_layer in (5, 30):
        for enabled in (True, False):
            vals = []
            for seed in range(1, 11):
                sc = scenarios.congestion_scenario(per_layer, seed)
                if not enabled:
                    sc = replace(sc, switch_prob=0.0)
                tr = run(sc)
                vals.append(ipr_threshold(tr))
            means[(per_layer, enabled)] = float(np.mean(vals))
    wall = time.time() - t0

    on5, off5 = means[(5, True)], means[(5, False)]
    on30, off30 = means[(30, True)], means[(30, False)]
    i_ok = 0.1 <= on5 <= 0.5
    ii_ok = on5 <= 0.5 * off5
    iii_ok = on30 >= 0.8
    _verdict(i_ok, "criterion 7i", f"5/layer switching mean threshold {on5:.2f}s in [0.1, 0.5]")
    _verdict(ii_ok, "criterion 7ii", f"{on5:.2f}s <= half of switching-off {off5:.2f}s")
    _verdict(
        iii_ok,
        "criterion 7iii",
        f"30/layer switching mean threshold {on30:.2f}s >= 0.8s (off: {off30:.1f}s)",
    )
    ok = i_ok and ii_ok and iii_ok and wall < 600.0
    _verdict(ok, "criterion 7", f"wall {wall:.1f}s (< 600s)")
    assert i_ok and ii_ok and iii_ok
    assert wall < 600.0


def test_criterion_08_switch_counts_across_relay_placements():
    """A parked relay must see zero completed switches over 40 s, and the
    airborne relay under interference at least as many switch events as
    without, seed by seed."""
    completions = {}
    requests = {}
    for name in ("fig6-stationary", "fig6-airborne", "fig6-interference"):
        completions[name] = []
        requests[name] = []
        for seed in range(1, 11):
            tr = run(scenarios.get_scenario(name, seed=seed))
            completions[name].append(
                sum(1 for e in tr.events if e[2] == "LS_DONE")
            )
            requests[name].append(sum(1 for e in tr.events if e[2] == "LS_REQ"))
    stationary_ok = all(c == 0 for c in completions["fig6-stationary"])
    pairwise_ok = all(
        i >= a
        for i, a in zip(requests["fig6-interference"], requests["fig6-airborne"])
    )
    ok = stationary_ok and pairwise_ok
    _verdict(
        ok,
        "criterion 8",
        f"stationary completions {completions['fig6-stationary']}, "
        f"interference vs airborne requests "
        f"{requests['fig6-interference']} >= {requests['fig6-airborne']}",
    )
    assert stationary_ok
    assert pairwise_ok


def _floor_capacity(sc, ris, k):
    """Capacity at amplitude |h_direct| + cos(r pi / 2) * the cascade bound:
    quantized phases keep every element's term within r pi / 2 of the real
    axis at the geometry they were steered for (slack 1e-12 of the bound)."""
    par, r = sc.channel, sc.phase_resolution
    cascade = cascaded_gain_bound(sc.bs_pos, ris, k, sc.ris_elements, par)
    amp = abs(direct_gain(sc.bs_pos, k, par)) + (math.cos(r * math.pi / 2.0) - 1e-12) * cascade
    return capacity(amp * amp * par.tx_power_w / (par.noise_power_w + interference_at(k, par)), par)


def _ticks_under_the_floor(sc):
    """Served ticks of the flight whose capacity is under the floor, and
    served ticks."""
    tr = run(sc)
    ids = tr.ids.tolist()
    ticks, rows = np.nonzero(tr.capacity_bps > 0.0)
    under = 0
    for k, row in zip(ticks.tolist(), rows.tolist()):
        partner = int(tr.ris_partner[k, row])
        relay = ids.index(partner) if partner >= 0 else -1
        ris = sc.ris_pos if relay < 0 else (float(tr.x[k, relay]), float(tr.h[k, relay]))
        served = (float(tr.x[k, row]), float(tr.h[k, row]))
        under += tr.capacity_bps[k, row] < _floor_capacity(sc, ris, served)
    return under, len(ticks)


def test_criterion_09_capacity_orders_with_phase_resolution():
    """Run-mean capacity is monotone along {zero, pi, pi/3, pi/6, pi/12,
    continuous} with 2% slack, and the two finest grids land within 5% of
    the continuous optimum.  With the phases planned every tick (fresh
    windows), no served tick of a quantized grid falls under the floor of
    its resolution."""
    base = scenarios.get_scenario("fig9-phase")
    settings = [
        ("zero", PhaseMode.ZERO, None),
        ("pi", PhaseMode.QUANTIZED, 1.0),
        ("pi/3", PhaseMode.QUANTIZED, 1.0 / 3.0),
        ("pi/6", PhaseMode.QUANTIZED, 1.0 / 6.0),
        ("pi/12", PhaseMode.QUANTIZED, 1.0 / 12.0),
        ("cont", PhaseMode.CONTINUOUS, None),
    ]
    means = []
    for label, mode, res in settings:
        sc = replace(base, phase_mode=mode, phase_resolution=res)
        means.append(float(summarize(run(sc))["capacity_mean"]))
    chain_ok = all(b >= a * (1.0 - 0.02) for a, b in zip(means, means[1:]))
    cont = means[-1]
    close_ok = means[3] >= 0.95 * cont and means[4] >= 0.95 * cont
    ok = chain_ok and close_ok
    labels = [s[0] for s in settings]
    _verdict(
        ok,
        "criterion 9",
        "capacity chain "
        + " <= ".join(f"{l}:{m:.2f}" for l, m in zip(labels, means))
        + f"; pi/6 at {means[3]/cont:.3f}, pi/12 at {means[4]/cont:.3f} of continuous",
    )
    floors = {
        label: _ticks_under_the_floor(replace(base, phase_mode=mode, phase_resolution=res, comm_interval=1))
        for label, mode, res in settings
        if mode is PhaseMode.QUANTIZED
    }
    floor_ok = all(under == 0 and served > 0 for under, served in floors.values())
    _verdict(
        floor_ok,
        "criterion 9 fresh windows",
        "served ticks under the floor "
        + ", ".join(f"{l}:{under}/{served}" for l, (under, served) in floors.items())
        + " (none allowed)",
    )
    assert chain_ok
    assert close_ok
    assert floor_ok


def test_criterion_10_bitwise_deterministic_artifacts(tmp_path):
    """Re-running a scenario reproduces trace and metrics files byte for
    byte, in-process and across interpreter processes with different
    worker-thread settings."""
    sc = scenarios.get_scenario("fig12-ipr", seed=3)
    blobs = []
    for rerun in range(2):
        tr = run(sc)
        tp = tmp_path / f"t{rerun}.csv"
        mp = tmp_path / f"m{rerun}.txt"
        write_trace(tr, str(tp))
        write_metrics(summarize(tr), str(mp))
        blobs.append(tp.read_bytes() + mp.read_bytes())
    inproc_ok = blobs[0] == blobs[1]

    script = (
        "from uamsim import scenarios, engine\n"
        "tr = engine.run(scenarios.get_scenario('fig12-ipr', seed=3))\n"
        "engine.write_trace(tr, r'{out}')\n"
    )
    digests = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        env["MKL_NUM_THREADS"] = threads
        # the child imports the package under test, also when only pytest's
        # own pythonpath setting put it on sys.path
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(scenarios.__file__))
        subprocess.run(
            [sys.executable, "-c", script.format(out=out)],
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        digests.append(out.read_bytes())
    threads_ok = digests[0] == digests[1] == blobs[0][: len(digests[0])]
    ok = inproc_ok and threads_ok
    _verdict(
        ok,
        "criterion 10",
        f"in-process rerun identical: {inproc_ok}; 1-thread vs 4-thread "
        f"process traces identical: {digests[0] == digests[1]}",
    )
    assert inproc_ok
    assert threads_ok
