"""Pinned artifacts: every builtin at seed 1, and ``uamsim delay-bounds`` with
its defaults, write the same bytes as before.

A change that alters a digest must explain the new numbers in CHANGES.md and
update the table below.
"""

import hashlib

import pytest

from uamsim import engine, scenarios
from uamsim.cli import main

# scenario -> file -> (sha256, line count), for seed 1
GOLDEN = {
    "fig11-cpf": {
        "trace.csv": ("f44855f4fde8f8c78eba6c67682ece2116827d6e2eaa80c692b49b45affba888", 14401),
        "events.csv": ("ff851e2cbaab1423e6d988b200bb939cf1186f4f9e14a0d53354b1b4427d83fa", 17),
        "metrics.txt": ("62b5d3b3467eb0d4a40062d097d09bbf9385c156194deb16d3258898206151cc", 18),
    },
    "fig12-ipr": {
        "trace.csv": ("7c73d2463935b887a5c6afe6fac66ca39a972db7485b0f4c8227e6b321fcf9d0", 6001),
        "events.csv": ("e1a15d34dbacff9e198681bbec7fa7e9f64b977b38669b75f06e028bd95d8b70", 32),
        "metrics.txt": ("87416c4855e412934ee4009101bb513bc122e23f4d60173da43734dc9962691f", 18),
    },
    "fig12-ipr-dense": {
        "trace.csv": ("35aa37a54e67c7a1ac76bfd7d9dbc0abf561e407a651d970ba2ff98f13ea26b2", 36001),
        "events.csv": ("56d30e2e8422f68d34bdd3d0b5d996b5f05f90f9c599d8a9027c49dc3abc19e3", 820),
        "metrics.txt": ("3d4fb6a3cf315aa1764f2f3c024124e6d1a8241c98830cc40fe98dec88a52b94", 18),
    },
    "fig5-delay": {
        "trace.csv": ("b25802cae30623ad0bc706d2992d8a0fdea54dac339448912ba3aadc62e6e0e1", 6001),
        "events.csv": ("3a9d252021e8d6735ae32ef0c959b39ec969d1321ba3b3e814e73235eee6fe61", 1),
        "metrics.txt": ("c1eb42ebd32f8a09b4c668ddd02c56c4d6be3b1aab5084a5722fb2525546240c", 18),
    },
    "fig6-airborne": {
        "trace.csv": ("20f83fb504a6d256620ffe4a613b441655e5477e9dc3dfcda410ddb69a84df1f", 6001),
        "events.csv": ("3a9d252021e8d6735ae32ef0c959b39ec969d1321ba3b3e814e73235eee6fe61", 1),
        "metrics.txt": ("0493b443cd35973cbef5ecc84c0b98ab82f2b99a6e821e873868d58b09efbcc2", 18),
    },
    "fig6-interference": {
        "trace.csv": ("3f728f322c19af71836fedac0d26e71603eb119d81e4e01f08c8700dd10d3420", 6001),
        "events.csv": ("3a9d252021e8d6735ae32ef0c959b39ec969d1321ba3b3e814e73235eee6fe61", 1),
        "metrics.txt": ("86296bc7f21a6810bd09397d5d4b43659ee6d3a5f5a0424a5eba8e00382c4a73", 18),
    },
    "fig6-stationary": {
        "trace.csv": ("eb51749573cfb1903b8203dbc9e9f43f48273f21dddbf162ed558cbb84fdf17c", 6001),
        "events.csv": ("3a9d252021e8d6735ae32ef0c959b39ec969d1321ba3b3e814e73235eee6fe61", 1),
        "metrics.txt": ("c7f77f5044f9f8bcdb75ca44cbfd2e8ead5433aeb44a07bc3b96715555e58397", 18),
    },
    "fig9-phase": {
        "trace.csv": ("b25802cae30623ad0bc706d2992d8a0fdea54dac339448912ba3aadc62e6e0e1", 6001),
        "events.csv": ("3a9d252021e8d6735ae32ef0c959b39ec969d1321ba3b3e814e73235eee6fe61", 1),
        "metrics.txt": ("adb49bfbab21377d3d7babddf24c7680273e3d40e7e8d9c7760b3aede692f414", 18),
    },
    "table1-5perlayer": {
        "trace.csv": ("b25802cae30623ad0bc706d2992d8a0fdea54dac339448912ba3aadc62e6e0e1", 6001),
        "events.csv": ("3a9d252021e8d6735ae32ef0c959b39ec969d1321ba3b3e814e73235eee6fe61", 1),
        "metrics.txt": ("414c50b922a5b2de12d592e01085bf7f582e5c371f993c337f751fba66791762", 18),
    },
}

FILES = ("trace.csv", "events.csv", "metrics.txt")

# uamsim delay-bounds with default arguments: fig5-delay's protocol, loads
# 5,15,25,35 Mb, budgets to 2 s on a 5 ms grid
DELAY_BOUNDS = ("0c4b1ab9232dfdab90904d914462e4f36c41744da8341b85a9645c29e8a42c24", 4801)


def write_artifacts(name, out):
    """Write the three deterministic artifacts of builtin ``name`` at seed 1."""
    trace = engine.run(scenarios.get_scenario(name, seed=1))
    engine.write_trace(trace, str(out / "trace.csv"))
    engine.write_events(trace, str(out / "events.csv"))
    engine.write_metrics(engine.summarize(trace), str(out / "metrics.txt"))


def digest(path):
    blob = path.read_bytes()
    return hashlib.sha256(blob).hexdigest(), blob.count(b"\n")


def test_every_builtin_is_pinned():
    assert sorted(GOLDEN) == sorted(scenarios.BUILTIN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_artifacts_match_their_digests(name, tmp_path):
    write_artifacts(name, tmp_path)
    for fname in FILES:
        got = digest(tmp_path / fname)
        assert got == GOLDEN[name][fname], f"{name}: {fname} differs from its pinned digest"


def test_delay_bounds_match_their_digest(tmp_path, capsys):
    assert main(["delay-bounds", "--out", str(tmp_path)]) == 0
    got = digest(tmp_path / "delay_bounds.csv")
    assert got == DELAY_BOUNDS, "delay_bounds.csv differs from its pinned digest"
