"""Command-line entry points: artifacts, purity, exit codes."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from uamsim import cli, engine, netcalc, scenarios
from uamsim.cli import main


def test_validate_builtin_ok(capsys):
    rc = main(["validate", "--scenario", "table1-5perlayer"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("ok:")


def test_validate_rejects_broken_override(capsys):
    rc = main(
        ["validate", "--scenario", "table1-5perlayer", "--set", "aircraft.0=9,100,0,0"]
    )
    assert rc == 1
    assert "problem" in capsys.readouterr().out


def test_validate_rejects_a_grid_that_does_not_divide_the_turn(capsys):
    """Step 0.3 pi used to validate, then fail the run with ``phase off the
    resolution grid``."""
    rc = main(["validate", "--scenario", "fig9-phase", "--set", "phase_resolution=0.3"])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        "problem: phase resolution must be 2/n for a whole number n >= 1"
    ]


@pytest.mark.parametrize(
    "setting, message",
    [
        pytest.param("dt=nan", "problem: dt must be positive and finite", id="dt"),
        pytest.param("duration_s=inf", "problem: duration must be positive and finite", id="duration"),
        pytest.param("bs_pos=1,2,3", "error: bs_pos: expected 2 numbers", id="bs_pos"),
        pytest.param("stationary_ris_pos=400", "error: stationary_ris_pos: expected 2 numbers", id="ris_pos"),
    ],
)
def test_validate_rejects_non_finite_times_and_bad_positions(setting, message, capsys):
    rc = main(["validate", "--scenario", "fig6-airborne", "--set", setting])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [message]


@pytest.mark.parametrize(
    "setting, message",
    [
        ("channel.interference_pos=nan,0", "error: interference_pos must be finite"),
        ("channel.noise_power_w=nan", "error: noise_power_w must be finite"),
        ("neighbor_radius_m=nan", "problem: neighbor_radius_m must be finite"),
        ("channel.interference_pos=none", "error: interference power needs an interference position"),
    ],
)
def test_validate_rejects_non_finite_settings(setting, message, capsys):
    """Each of these used to print ``ok``: a NaN source or noise floor served
    nothing, and an interference power without a source was ignored."""
    rc = main(["validate", "--scenario", "fig6-interference", "--set", setting])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [message]


@pytest.mark.parametrize(
    "setting, message",
    [
        pytest.param(setting, message, id=setting)
        for setting, message in [
            ("comm_interval=1.5", "error: comm_interval: expected an integer, got '1.5'"),
            (
                "phase_mode=foo",
                "error: phase_mode: expected one of continuous, quantized, zero, got 'foo'",
            ),
            ("dt=abc", "error: dt: expected a number, got 'abc'"),
            ("bs_pos=1,abc", "error: bs_pos: expected a number, got 'abc'"),
            ("channel.noise_power_w=x", "error: channel.noise_power_w: expected a number, got 'x'"),
            ("aircraft.0=1,abc", "error: aircraft.0: expected a number, got 'abc'"),
            ("aircraft.0=one,100", "error: aircraft.0: expected an integer, got 'one'"),
        ]
    ],
)
def test_a_setting_that_does_not_parse_is_named(setting, message, capsys):
    """These used to print the bare conversion error, such as
    ``could not convert string to float: 'abc'``, without the setting."""
    rc = main(["validate", "--set", setting])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [message]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(argv, message, id=" ".join(argv))
        for argv, message in [
            (
                ["delay-bounds", "--loads", "5,abc"],
                "error: --loads: expected a comma list of finite numbers, got '5,abc'",
            ),
            (
                ["delay-bounds", "--loads", "5,nan"],
                "error: --loads: expected a comma list of finite numbers, got '5,nan'",
            ),
            (
                ["ipr-sweep", "--rosters", "abc"],
                "error: --rosters: expected a comma list of integers, got 'abc'",
            ),
            (
                ["ipr-sweep", "--rosters", "2.5"],
                "error: --rosters: expected a comma list of integers, got '2.5'",
            ),
            (
                ["ipr-sweep", "--thresholds", "0.5,nan"],
                "error: --thresholds: expected a comma list of finite numbers, got '0.5,nan'",
            ),
            (
                ["phase-sweep", "--resolutions", "1/x"],
                "error: --resolutions: expected cont, zero, a number or a fraction like 1/12, got '1/x'",
            ),
            (["phase-sweep", "--resolutions", "1/0"], "error: --resolutions: '1/0' divides by zero"),
            (
                ["phase-sweep", "--resolutions", ","],
                "error: --resolutions: expected at least one resolution, got ','",
            ),
            (
                ["delay-bounds", "--grid-dt", "0"],
                "error: --grid-dt: grid step must be positive and at most a tenth of the budget",
            ),
            (["delay-bounds", "--t-max", "-1"], "error: --t-max: time budget must be positive and finite"),
            (["delay-bounds", "--loads", "5,-1"], "error: --loads: load must be finite and non-negative"),
            (["ipr-sweep", "--rosters", "2,0"], "error: --rosters: per_layer must be at least 1"),
        ]
    ],
)
def test_an_option_that_does_not_parse_is_named(argv, message, tmp_path, capsys):
    """These used to print the bare conversion error, such as
    ``could not convert string to float: 'abc'``, or the bare range error,
    such as ``load must be finite and non-negative``, without the option."""
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out.splitlines() == [message]
    assert list(tmp_path.iterdir()) == []


def test_only_the_delay_bounds_load_the_special_functions(tmp_path):
    """scipy.special, for the Poisson tail alone, stays out of a simulate run."""
    code = (
        "import sys\n"
        "import uamsim\n"
        "from uamsim import cli\n"
        "cli.main(['simulate', '--set', 'duration_s=1', '--out', 'sim'])\n"
        "print('loaded', 'scipy.special' in sys.modules)\n"
        "cli.main(['delay-bounds', '--loads', '5', '--out', 'delay'])\n"
        "print('loaded', 'scipy.special' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = [l for l in done.stdout.splitlines() if l.startswith("loaded ")]
    assert loaded == ["loaded False", "loaded True"]


def test_delay_bounds_rejects_a_non_finite_rate(tmp_path, capsys):
    """A NaN rate used to print "none" for every fashion."""
    rc = main(["delay-bounds", "--out", str(tmp_path), "--set", "protocol.omni_rate=nan"])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == ["error: omni_rate must be finite"]
    assert not (tmp_path / "delay_bounds.csv").exists()


_BAD_INPUTS = {
    "unknown scenario": ["--scenario", "definitely-not-real"],
    "section nan": ["--set", "channel.noise_power_w=nan"],
    "scenario problem": ["--set", "dt=nan"],
    # -1 marks "no airborne relay" in trace.csv and ZERO_PATH events
    "negative aircraft id": ["--set", "aircraft.-1=1,401"],
    # durations that are not a whole number of ticks used to be rounded
    "duration under one tick": ["--set", "duration_s=0.01"],
    "duration between ticks": ["--set", "duration_s=1.05"],
    # a quantized grid used to pass validation, then fail the run mid-way
    "grid that does not divide the turn": ["--set", "phase_resolution=0.3"],
    "negative seed": ["--seed", "-1"],
    # a negative reach or delay used to print ok
    "negative vertical separation": ["--set", "airspace.vertical_separation_coeff=-1"],
    "negative reaction delay": ["--set", "airspace.reaction_delay_s=-1"],
    # its ticks all printed as t = 0.0
    "step under a nanosecond": ["--set", "dt=1e-10", "--set", "duration_s=1e-9"],
    # it used to pass every check, then end in a traceback mid-way through delay_bounds.csv
    "negative arrival rate": ["--set", "protocol.arrival_rate=-1"],
    "out names a file": ["--out", "F"],
}
_BAD_ARGUMENTS = {
    "delay-bounds": [["--loads", "5,-1"], ["--grid-dt", "0"]],
    "phase-sweep": [["--resolutions", "1,0"], ["--resolutions", "1,0.3"], ["--resolutions", "abc"], ["--resolutions", "1/0"], ["--resolutions", ","]],
    "ipr-sweep": [["--rosters", "2,0"], ["--rosters", "2.5"], ["--rosters", "2", "--thresholds", "0.5,nan"]],
    # builtins drawn at random from their seed
    "validate": [["--scenario", "fig11-cpf", "--seed", "-1"], ["--scenario", "fig12-ipr", "--seed", "-1"]],
}
_REJECTIONS = [
    pytest.param(command, bad, id=f"{command}-{label}")
    for command in ("simulate", "delay-bounds", "phase-sweep", "ipr-sweep", "validate")
    for label, bad in _BAD_INPUTS.items()
    if not (command == "ipr-sweep" and label == "unknown scenario")  # it builds its own rosters
    # it flies no scenario, so it takes neither option
    and not (command == "delay-bounds" and label in ("unknown scenario", "negative seed"))
    and not (command == "validate" and label == "out names a file")  # it writes nothing
    # no flight reads the delay model (test_a_flight_takes_no_protocol_setting)
    and not (command != "delay-bounds" and label == "negative arrival rate")
    # its resolution tokens replace the setting
    and not (command == "phase-sweep" and label == "grid that does not divide the turn")
] + [
    pytest.param(command, bad, id=f"{command}-{' '.join(bad)}")
    for command, cases in _BAD_ARGUMENTS.items()
    for bad in cases
]


@pytest.mark.parametrize("command, bad", _REJECTIONS)
def test_bad_input_is_rejected_before_anything_is_written(command, bad, tmp_path, monkeypatch, capsys):
    """Every command checks all its scenarios and arguments first: bad input
    gives exit 1 and only error/problem lines, and writes no file.  The
    commands other than validate used to end in a traceback, the sweeps
    after writing part of their CSV, and ``--out F`` naming an existing
    file after passing every check."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("keep\n")
    out = [] if command == "validate" else ["--out", "out"]
    assert main([command, *out, *bad]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(l.startswith(("error: ", "problem: ")) for l in lines), lines
    if "--seed" in bad:
        assert [l.split(": ", 1)[1] for l in lines] == ["seed must be non-negative"]
    if "F" in bad:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert [p.name for p in tmp_path.iterdir()] == ["F"]
    assert (tmp_path / "F").read_text() == "keep\n"


@pytest.mark.parametrize("setting", ["dt=0", "aircraft.9=1,5"])
def test_delay_bounds_takes_no_scenario_setting(setting, tmp_path, capsys):
    """It flies no scenario: a flight setting used to be checked against a
    15-aircraft builtin that the command never ran, and then ignored."""
    assert main(["delay-bounds", "--set", setting, "--out", str(tmp_path / "out")]) == 1
    key = setting.partition("=")[0]
    assert capsys.readouterr().out.splitlines() == [f"error: unknown setting {key!r}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "phase-sweep", "ipr-sweep", "validate"])
def test_a_flight_takes_no_protocol_setting(command, tmp_path, capsys):
    """No flight reads the delay model; a protocol key used to be accepted
    and ignored."""
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, *out, "--set", "protocol.loss_prob=0.2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "error: unknown settings section 'protocol' in 'protocol.loss_prob'"
    ]
    assert list(tmp_path.iterdir()) == []


def test_every_protocol_field_parses_from_its_setting():
    """Each field of the delay model is one ``protocol.<name>`` key, and the
    optional arrival rate takes ``none``."""
    defaults = netcalc.ProtocolParams()
    assert cli._protocol([]) == defaults
    for f in dataclasses.fields(defaults):
        value = 0.5 * (getattr(defaults, f.name) or 2.0)  # valid, and off the default
        got = cli._protocol([(f"protocol.{f.name}", repr(value))])
        assert got == dataclasses.replace(defaults, **{f.name: value}), f.name
    pinned = [("protocol.arrival_rate", "7")]
    assert cli._protocol(pinned).arrival_rate == 7.0
    assert cli._protocol(pinned + [("protocol.arrival_rate", "none")]) == defaults


def test_the_module_entry_point_exits_1_without_a_traceback(tmp_path):
    """The exit status reaches the process, as through the console script."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "uamsim.cli", "simulate", "--set", "dt=nan"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert done.stderr == ""
    assert done.stdout == "problem: dt must be positive and finite\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_writes_all_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(
        [
            "simulate",
            "--scenario",
            "fig12-ipr",
            "--seed",
            "2",
            "--set",
            "duration_s=5.0",
            "--out",
            out,
        ]
    )
    assert rc == 0
    for fname in ("trace.csv", "events.csv", "metrics.txt", "scenario.txt"):
        assert os.path.exists(os.path.join(out, fname)), fname
    header = open(os.path.join(out, "trace.csv")).readline().strip()
    assert header == "t,id,x,h,vx,vy,layer,mode,capacity_bps,active_ris_id"
    text = capsys.readouterr().out
    assert "conflict_episodes" in text


def test_simulate_validates_its_scenario_once(tmp_path, monkeypatch, capsys):
    """``main`` checks the scenario before it writes, and ``engine.run``
    checks it again; the scenario keeps the findings, so the validation runs
    once.  A library caller's bad scenario is still rejected by the run."""
    checked = []
    validate = engine.validate_scenario
    monkeypatch.setattr(engine, "validate_scenario", lambda sc: checked.append(sc) or validate(sc))
    argv = ["simulate", "--scenario", "fig9-phase", "--set", "duration_s=0.5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert [sc.name for sc in checked] == ["fig9-phase"]
    bad = dataclasses.replace(checked[0], dt=-0.1)
    with pytest.raises(ValueError, match="invalid scenario: dt must be positive"):
        engine.run(bad)
    assert checked[1:] == [bad]


def test_simulate_reruns_byte_identical(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        rc = main(
            [
                "simulate",
                "--scenario",
                "fig12-ipr",
                "--seed",
                "6",
                "--set",
                "duration_s=6.0",
                "--out",
                out,
            ]
        )
        assert rc == 0
        blobs.append(
            {
                f: open(os.path.join(out, f), "rb").read()
                for f in ("trace.csv", "events.csv", "metrics.txt", "scenario.txt")
            }
        )
    assert blobs[0] == blobs[1]


def test_delay_bounds_curve_file(tmp_path, capsys):
    out = str(tmp_path / "delay")
    rc = main(
        [
            "delay-bounds",
            "--out",
            out,
            "--loads",
            "5,15",
            "--t-max",
            "1.0",
            "--grid-dt",
            "0.01",
        ]
    )
    assert rc == 0
    lines = open(os.path.join(out, "delay_bounds.csv")).read().strip().splitlines()
    assert lines[0] == "kind,load,t,failure_prob"
    # three channel fashions x two loads, a full grid each
    assert len(lines) > 3 * 2 * 50
    probs = np.array([float(l.split(",")[3]) for l in lines[1:]])
    assert np.all((0.0 <= probs) & (probs <= 1.0))


def test_phase_sweep_runs_reduced_grid(tmp_path, capsys):
    out = str(tmp_path / "phase")
    rc = main(
        [
            "phase-sweep",
            "--scenario",
            "fig9-phase",
            "--set",
            "duration_s=3.0",
            "--resolutions",
            "zero,1/6,cont",
            "--out",
            out,
        ]
    )
    assert rc == 0
    lines = open(os.path.join(out, "phase_sweep.csv")).read().strip().splitlines()
    assert lines[0] == "setting,resolution,capacity_mean_bps,capacity_ticks"
    assert len(lines) == 4
    means = [float(l.split(",")[2]) for l in lines[1:]]
    print(f"reduced sweep means: {means}")
    # finest grids should not lose to the zero-phase baseline
    assert means[2] >= means[0] * 0.98


def test_ipr_sweep_roster_file(tmp_path, capsys):
    out = str(tmp_path / "ipr")
    rc = main(
        [
            "ipr-sweep",
            "--rosters",
            "2",
            "--thresholds",
            "0.1,0.5,1.0",
            "--seed",
            "3",
            "--out",
            out,
        ]
    )
    assert rc == 0
    lines = open(os.path.join(out, "ipr_sweep.csv")).read().strip().splitlines()
    assert lines[0] == "per_layer,switching,t_dur,ipr"
    # one roster, both switching flags, three thresholds
    assert len(lines) == 1 + 2 * 3
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[0] == "2" and parts[1] in ("on", "off")
        assert 0.0 <= float(parts[3]) <= 1.0


def test_unknown_scenario_is_a_clean_error(capsys):
    rc = main(["validate", "--scenario", "definitely-not-real"])
    assert rc == 1
    assert "error" in capsys.readouterr().out


def test_bad_setting_propagates_as_error():
    with pytest.raises(SystemExit):
        main(["simulate", "--set", "not-an-assignment"])


def test_one_parser_serves_many_calls(tmp_path, capsys):
    """``main`` parses every call with one parser, built on first use, and a
    call leaves nothing in it for the next: A, then B with another seed and
    goal weight, then A again.  A writes the same bytes both times, B's
    scenario carries none of A's settings, and a bad option after the good
    calls fails as it always did."""
    a = ["simulate", "--scenario", "fig12-ipr", "--set", "duration_s=1"]
    b = ["simulate", "--scenario", "fig12-ipr", "--seed", "2", "--set", "weights.goal=0"]
    files = ("trace.csv", "events.csv", "metrics.txt", "scenario.txt")
    blobs = []
    for argv, tag in ((a, "a1"), (b, "b"), (a, "a2")):
        assert main([*argv, "--out", str(tmp_path / tag)]) == 0
        blobs.append({f: (tmp_path / tag / f).read_bytes() for f in files})
    assert blobs[0] == blobs[2]
    want = scenarios.apply_settings(scenarios.get_scenario("fig12-ipr", 2), [("weights.goal", "0")])
    scenarios.save_scenario(want, str(tmp_path / "want.txt"))
    assert blobs[1]["scenario.txt"] == (tmp_path / "want.txt").read_bytes()
    assert want.duration_s == 40.0 and want.seed == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--set", "not-an-assignment"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "uamsim simulate: error: argument --set: expected key=value, got 'not-an-assignment'"
    )


def test_the_parser_is_built_on_the_first_call_only(tmp_path):
    """Importing the module builds no parser; the first ``main`` call
    builds one, and later calls build none."""
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "from uamsim import cli\n"
        "print(len(built))\n"
        "for _ in range(3):\n"
        "    cli.main(['validate'])\n"
        "    print(len(built))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    counts = [int(line) for line in done.stdout.splitlines() if line.isdigit()]
    assert counts[0] == 0 and counts[1] > 0 and counts[1:] == [counts[1]] * 3
