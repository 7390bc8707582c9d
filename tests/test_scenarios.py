"""Scenario catalogue, file round-trips and overrides."""

import numpy as np
import pytest

from uamsim import scenarios
from uamsim.engine import validate_scenario
from uamsim.scenarios import (
    BUILTIN,
    apply_settings,
    congestion_scenario,
    get_scenario,
    load_scenario,
    save_scenario,
)


def test_every_builtin_is_valid():
    for name in BUILTIN:
        sc = get_scenario(name)
        problems = validate_scenario(sc)
        assert problems == [], f"{name}: {problems}"
        print(f"{name}: {len(sc.aircraft)} aircraft, seed {sc.seed}")


def test_roundtrip_through_file(tmp_path):
    for name in ("table1-5perlayer", "fig12-ipr", "fig11-cpf", "fig6-interference"):
        sc = get_scenario(name, seed=9)
        path = tmp_path / f"{name}.txt"
        save_scenario(sc, str(path))
        back = load_scenario(str(path))
        assert back == sc, name
        assert "pso." not in path.read_text()


def test_settings_override_sections_and_top_level():
    sc = get_scenario("table1-5perlayer")
    out = apply_settings(
        sc,
        [
            ("duration_s", "12.5"),
            ("airspace.layer_spacing_m", "120"),
            ("protocol.loss_prob", "0.2"),
            ("switch_prob", "0.25"),
        ],
    )
    assert out.duration_s == 12.5
    assert out.airspace.layer_spacing_m == 120.0
    assert out.protocol.loss_prob == 0.2
    assert out.switch_prob == 0.25
    # the original is untouched
    assert sc.duration_s == 40.0


def test_settings_reject_unknown_keys():
    sc = get_scenario("table1-5perlayer")
    with pytest.raises(ValueError):
        apply_settings(sc, [("no_such_field", "1")])
    with pytest.raises(ValueError):
        apply_settings(sc, [("airspace.frobnicate", "1")])
    with pytest.raises(ValueError):
        apply_settings(sc, [("made_up_section.x", "1")])
    # the swarm settings went with the swarm planner
    with pytest.raises(ValueError):
        apply_settings(sc, [("pso.swarm_size", "30")])


def test_aircraft_override():
    sc = get_scenario("table1-5perlayer")
    out = apply_settings(sc, [("aircraft.0", "2,1500.0,3.0,0.0")])
    spec = next(a for a in out.aircraft if a.aircraft_id == 0)
    assert spec.layer == 2 and spec.x == 1500.0 and spec.speed_offset == 3.0


def test_congestion_builder_counts_and_determinism():
    sc = congestion_scenario(5, seed=4)
    assert len(sc.aircraft) == 15
    per_layer = {lay: 0 for lay in (0, 1, 2)}
    for a in sc.aircraft:
        per_layer[a.layer] += 1
    assert per_layer == {0: 5, 1: 5, 2: 5}
    again = congestion_scenario(5, seed=4)
    assert again == sc
    other = congestion_scenario(5, seed=5)
    assert other != sc
    with pytest.raises(ValueError):
        congestion_scenario(0, seed=1)


def test_congestion_positions_spread_out():
    rng_hits = []
    for seed in range(1, 6):
        sc = congestion_scenario(30, seed=seed)
        xs = np.array([a.x for a in sc.aircraft])
        assert np.all((0.0 <= xs) & (xs < 2000.0))
        rng_hits.append(float(xs.std()))
    print(f"x std over seeds: {[round(v, 1) for v in rng_hits]}")
    assert min(rng_hits) > 300.0


def test_get_scenario_seed_override_and_path(tmp_path):
    a = get_scenario("fig12-ipr", seed=3)
    assert a.seed == 3
    p = tmp_path / "mine.txt"
    save_scenario(a, str(p))
    b = get_scenario(str(p))
    assert b == a
    with pytest.raises(ValueError):
        get_scenario("no-such-scenario")


def test_loaded_file_rejects_bad_lines(tmp_path):
    p = tmp_path / "broken.txt"
    p.write_text("this line has no equals sign\n")
    with pytest.raises(ValueError):
        load_scenario(str(p))
