"""Scenario catalogue, file round-trips and overrides."""

import dataclasses
import math
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uamsim import scenarios
from uamsim.airspace import AirspaceConfig
from uamsim.engine import AircraftSpec, PhaseMode, RisMode, Scenario, validate_scenario
from uamsim.fields import FieldWeights
from uamsim.ris import ChannelParams
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


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


_point = st.tuples(_floats(None, None), _floats(None, None))


@st.composite
def _valid_scenarios(draw):
    v0 = draw(_floats(5.0, 40.0))
    v1 = v0 + draw(_floats(1.0, 20.0))
    v2 = v1 + draw(_floats(1.0, 20.0))
    air = AirspaceConfig(
        layer_spacing_m=draw(_floats(20.0, 200.0)),
        expected_speeds_mps=(v0, v1, v2),
        course_length_m=draw(_floats(500.0, 5000.0)),
        max_speed_mps=v2 + draw(_floats(3.0, 20.0)),
    )
    half = air.layer_spacing_m / 2.0
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
    craft = tuple(
        AircraftSpec(
            aid,
            draw(st.integers(0, 2)),
            draw(_floats(0.0, air.course_length_m, exclude_max=True)),
            draw(_floats(-3.0, 3.0)),
            draw(_floats(-half, half)),
        )
        for aid in ids
    )
    source = draw(st.none() | _point)
    dt = draw(_floats(1e-3, 1.0))
    return Scenario(
        name=draw(st.text(max_size=12)),
        airspace=air,
        channel=ChannelParams(
            interference_pos=source,
            interference_power_w=0.0 if source is None else draw(_floats(0.0, 1.0)),
        ),
        weights=FieldWeights(goal=draw(_floats(0.0, 1.0)), repulse=draw(_floats(0.0, 1e5))),
        aircraft=craft,
        dt=dt,
        comm_interval=draw(st.integers(1, 20)),
        duration_s=draw(st.integers(1, 10**4)) * dt,  # a whole number of ticks
        seed=draw(st.integers(0, 2**63)),
        switch_prob=draw(_floats(0.0, 0.5)),
        switching_enabled=draw(st.booleans()),
        initial_backoff=draw(st.integers(1, 32)),
        neighbor_radius_m=draw(_floats(1.0, 1e3)),
        target_window_m=draw(_floats(1.0, 1e4)),
        ris_mode=draw(st.sampled_from(RisMode)),
        stationary_ris_pos=draw(_point),
        bs_pos=draw(_point),
        ris_elements=draw(st.integers(1, 64)) ** 2,
        phase_mode=draw(st.sampled_from(PhaseMode)),
        phase_resolution=draw(_floats(1e-6, 4.0)),
        capture_band_m=draw(_floats(1e-2, half, exclude_max=True)),
        capture_speed_mps=draw(_floats(1e-2, 10.0)),
        intrusion_threshold_s=draw(_floats(0.0, 10.0)),
    )


@settings(max_examples=200, deadline=None)
@given(sc=_valid_scenarios())
def test_save_then_load_is_exact_for_valid_scenarios(sc):
    assume(validate_scenario(sc) == [])
    with tempfile.TemporaryDirectory() as tmp:
        save_scenario(sc, f"{tmp}/sc.txt")
        assert load_scenario(f"{tmp}/sc.txt") == sc


def _float_settings(sc):
    """(key, current value) of every float setting of ``sc`` and its
    sections, tuples of floats and the one that may be None included."""
    out = {"channel.interference_pos": (0.0, 0.0)}
    for prefix, obj in [("", sc)] + [(f"{s}.", getattr(sc, s)) for s in scenarios._SECTIONS]:
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if values and all(isinstance(v, float) for v in values):
                out[prefix + f.name] = value
    return sorted(out.items())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BUILTIN)), st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_a_non_finite_setting_is_rejected(name, data, bad):
    """NaN passed every ``x <= 0`` range check; now any float setting that is
    not finite fails loading or validation."""
    sc = get_scenario(name)
    key, value = data.draw(st.sampled_from(_float_settings(sc)))
    values = list(value) if isinstance(value, tuple) else [value]
    values[data.draw(st.integers(0, len(values) - 1))] = bad
    try:
        changed = apply_settings(sc, [(key, ",".join(map(repr, values)))])
    except ValueError as exc:
        assert "finite" in str(exc), (key, exc)
        return
    assert validate_scenario(changed) != [], key


def test_a_non_finite_aircraft_value_is_rejected():
    sc = apply_settings(get_scenario("fig12-ipr"), [("aircraft.3", "1,500.0,0.0,nan")])
    assert validate_scenario(sc) == ["aircraft 3: altitude_offset must be finite"]


def test_every_kind_of_bad_aircraft_is_named_in_roster_order():
    """The roster's floats are checked in one pass; each aircraft's
    problems still come in field order, then range order, aircraft by id."""
    nan, inf = math.nan, math.inf
    roster = (
        AircraftSpec(0, 1, 100.0),
        AircraftSpec(1, 1, nan),
        AircraftSpec(2, 1, 300.0, speed_offset=inf),
        AircraftSpec(3, 1, 400.0, altitude_offset=-inf),
        AircraftSpec(4, 2, nan, speed_offset=nan, altitude_offset=nan),
        AircraftSpec(5, 0, 2000.0),
        AircraftSpec(6, 3, 600.0),
        AircraftSpec(7, 2, 700.0, speed_offset=10.0),
        AircraftSpec(8, 0, 800.0, altitude_offset=60.0),
        AircraftSpec(9, 1, 100.0),
    )
    assert validate_scenario(Scenario(aircraft=roster[::-1])) == [
        "aircraft 1: x must be finite",
        "aircraft 1: x outside the course",
        "aircraft 2: speed_offset must be finite",
        "aircraft 2: initial speed out of range",
        "aircraft 3: altitude_offset must be finite",
        "aircraft 3: starts outside its band",
        "aircraft 4: x must be finite",
        "aircraft 4: speed_offset must be finite",
        "aircraft 4: altitude_offset must be finite",
        "aircraft 4: x outside the course",
        "aircraft 4: initial speed out of range",
        "aircraft 5: x outside the course",
        "aircraft 6: layer 3 out of range",
        "aircraft 7: initial speed out of range",
        "aircraft 8: starts outside its band",
        "aircraft 9: starts on aircraft 0",
    ]


def test_interference_power_needs_a_source():
    """A power with no source position used to be ignored by the run."""
    with pytest.raises(ValueError, match="interference position"):
        apply_settings(get_scenario("fig6-interference"), [("channel.interference_pos", "none")])
    with pytest.raises(ValueError, match="interference position"):
        ChannelParams(interference_power_w=1e-3)


def test_roster_order_is_by_id():
    """Any roster order gives one scenario: sorted by id, the order the
    engine's rows and the saved file use."""
    sc = get_scenario("fig12-ipr")
    back = Scenario(aircraft=sc.aircraft[::-1])
    assert back.aircraft == sc.aircraft
    assert dataclasses.replace(sc, aircraft=sc.aircraft[::-1]) == sc


def test_settings_reject_a_tuple_of_the_wrong_length():
    """A third coordinate used to be kept and silently ignored by the run."""
    for name in ("fig6-airborne", "fig6-interference"):
        sc = get_scenario(name)
        for key, raw in (
            ("bs_pos", "1,2,3"),
            ("stationary_ris_pos", "400"),
            ("airspace.expected_speeds_mps", "30,45"),
            ("channel.interference_pos", "1,2,3"),
        ):
            with pytest.raises(ValueError, match="expected"):
                apply_settings(sc, [(key, raw)])
    out = apply_settings(sc, [("bs_pos", "1,2"), ("airspace.expected_speeds_mps", "20,40,60")])
    assert out.bs_pos == (1.0, 2.0)
    assert out.airspace.expected_speeds_mps == (20.0, 40.0, 60.0)


def test_settings_override_sections_and_top_level():
    sc = get_scenario("table1-5perlayer")
    out = apply_settings(
        sc,
        [
            ("duration_s", "12.5"),
            ("airspace.layer_spacing_m", "120"),
            ("switch_prob", "0.25"),
        ],
    )
    assert out.duration_s == 12.5
    assert out.airspace.layer_spacing_m == 120.0
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
    with pytest.raises(ValueError, match="unknown settings section ''"):
        apply_settings(sc, [(".dt", "0.2")])
    # the swarm settings went with the swarm planner
    with pytest.raises(ValueError):
        apply_settings(sc, [("pso.swarm_size", "30")])
    # the delay model's settings belong to delay-bounds alone
    with pytest.raises(ValueError, match="unknown settings section 'protocol'"):
        apply_settings(sc, [("protocol.loss_prob", "0.2")])


def test_a_file_with_a_protocol_line_is_rejected(tmp_path):
    """The ``scenario.txt`` of earlier versions held the delay model's
    settings, which no flight reads; loading one names the first such key."""
    p = tmp_path / "old.txt"
    save_scenario(get_scenario("fig9-phase"), str(p))
    p.write_text(p.read_text() + "protocol.omni_rate = 20.0\nprotocol.loss_prob = 0.15\n")
    with pytest.raises(ValueError, match=r"^unknown settings section 'protocol' in 'protocol.omni_rate'$"):
        load_scenario(str(p))


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**224 - 1), n=st.integers(1, 300))
def test_placement_draws_are_what_the_generator_draws(seed, n):
    """Placement reads PCG64's raw stream itself, with the bits that
    ``Generator.random`` gives, for seeds of one to seven 32-bit words."""
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).random(n)
    assert scenarios._seeded_draws(seed, n).tobytes() == want.tobytes()


def test_random_builtins_are_built_without_a_generator(monkeypatch):
    """No placement goes through ``Generator``'s methods, which NEP 19 does
    not keep stable."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.random.Generator called")

    monkeypatch.setattr(np.random, "Generator", refuse)
    for name in ("fig11-cpf", "fig12-ipr", "fig12-ipr-dense"):
        assert validate_scenario(get_scenario(name, seed=2)) == []


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


def test_airborne_interference_mode_is_rejected(tmp_path):
    """The mode never ran differently from ``airborne``; a file naming it is
    an error, not a silent airborne run.  Interference is a channel setting."""
    p = tmp_path / "interference.txt"
    save_scenario(get_scenario("fig6-interference"), str(p))
    text = p.read_text().replace("ris_mode = airborne\n", "ris_mode = airborne-interference\n")
    p.write_text(text)
    with pytest.raises(ValueError, match="airborne-interference"):
        load_scenario(str(p))
