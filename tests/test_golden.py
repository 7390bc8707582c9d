"""Pinned artifacts: every builtin at seed 1, and ``uamsim delay-bounds`` with
its defaults, write the same bytes as before.  Four builtins and six
variants also pin the raw state arrays of their trace, every bit of which the
files' 6 decimals would not show.

A change that alters a digest must explain the new numbers in CHANGES.md and
update the table below.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from trace_reference import first_difference, write_trace_per_row
from uamsim import airspace, engine, scenarios
from uamsim.cli import main

# scenario -> file -> (sha256, line count), for seed 1
GOLDEN = {
    "fig11-cpf": {
        "trace.csv": ("f44855f4fde8f8c78eba6c67682ece2116827d6e2eaa80c692b49b45affba888", 14401),
        "events.csv": ("ff851e2cbaab1423e6d988b200bb939cf1186f4f9e14a0d53354b1b4427d83fa", 17),
        "metrics.txt": ("62b5d3b3467eb0d4a40062d097d09bbf9385c156194deb16d3258898206151cc", 18),
    },
    "fig12-ipr": {
        "trace.csv": ("4ff7c200bc7989f100168c049735d5e5519de255e6b5384cbbe42034166680ed", 6001),
        "events.csv": ("e1a15d34dbacff9e198681bbec7fa7e9f64b977b38669b75f06e028bd95d8b70", 32),
        "metrics.txt": ("ce8f1f8a998d95458e2091cbcf8abf28652d98a11278f8bafa7853b2cfa19116", 18),
    },
    "fig12-ipr-dense": {
        "trace.csv": ("824b275a4b07838e41c66527bc5d356ace27f04ec3fed3de1050f0e728c45b4b", 36001),
        "events.csv": ("6818c7a6ef3f386b22d68e463fa53c19325e0d40ac2eaf1b4044465d31c8e521", 877),
        "metrics.txt": ("560add75de57a9acc49c0b72a27831754d74326200d7c13653d7bd06d254a008", 18),
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

# scenario -> SimTrace state array -> sha256 of its bytes (float64 and int64,
# little-endian), for seed 1 unless the variant sets another
RAW = {
    "fig12-ipr": {
        "x": "fffaccd9c9a76a8da6bdaf6d0d55db8098c7f92deaaf79e7cc4436126ffc280b",
        "h": "f9d266a754027641d827d77da27fef12fd471885db5b2997e62031093de5d7d5",
        "vx": "72e15d6c1134f922a3d498806ecd7d466faae28a1c7b3b86eac70fc5c7d9755e",
        "vy": "6e65594f04b7c1b936026cc9ee4ccb83f0f33fb33db92df4446393ce1a47c1c9",
        "layer": "d5ec8f2261399f79cc2e5e544b5c144d0caace8b0dc25a76cd83e53b9046637c",
        "mode": "8e1c35c180ac0fb730f8bb42394ce74617aae1b6ce8d02f6155615a9cc4bbb16",
        "capacity_bps": "f18be90ff82ce6944111f98aa37e83da40d2dd5835a2a96d56c437b41d7d055f",
        "ris_partner": "411a42ca7f91053ba24324f61ce1f657d2e685074193ec9c230fa763a57388a1",
    },
    "fig12-ipr-dense": {
        "x": "f2b6af00bc4e92ba39c05808c052f6f5d40b13de5acc3b2322e2eadaf16eb48d",
        "h": "1294de3b4caebc93338169558f2bceeacbbd92cb6763580338b4da19ddf6033e",
        "vx": "e594a9fc2238a8c1ba3df2331a8eb5cf6fd64d9556a447c6b691be2d06b562b7",
        "vy": "1bdbf0a0cdaf0579b3c9a915ba3e555f678522e782ebc73cc369dea6b62623e3",
        "layer": "8f259ce6062b31d986b3395e373df6fda155201a96c2910c2fc713b465194d71",
        "mode": "58fca0557542a1f12eccb1405e18ccf052842145f60d350894ca0aab9906deab",
        "capacity_bps": "faa7303e290acd5ae75fc14168629f0c163cd09328eeb0425c71b689e25b1b87",
        "ris_partner": "9ab4db43617e15b3b120b25ba1307d5c752c0fc76092a2c73dc6d53ec6ac0ac7",
    },
    "fig6-airborne": {
        "x": "5d37ed9d444fc4e7535bb3db864f0679861a379042dd7af7378bd634a7c8ec3b",
        "h": "25c1167242e7b3981f53d40db76696561638e8f0b1fe8ac0cdc3ae061200af3c",
        "vx": "894b511750ff0adcd5fb5891bab4f4abcf0802719da5431ca3bc6486218d891d",
        "vy": "bb918147fe10391b43adeba4bd21b9ef32e5bd6c5076c3517733a05ed6dd0569",
        "layer": "7abd0fdf6b30cde67208d377bd97230a9e1bab55e80b099447b59b53a2309966",
        "mode": "bb918147fe10391b43adeba4bd21b9ef32e5bd6c5076c3517733a05ed6dd0569",
        "capacity_bps": "5514f844e5dcc325f28d326b23f0eb774e9a87224cc578748ecc3083749a5482",
        "ris_partner": "abc127d44cea14cb76e589bc2e611d7e260ff832ac1cf23e14447f628c70a0c7",
    },
    "fig12-ipr-xl": {
        "x": "3862a249b715a6795c6eb4fba7113f713fe97eaec22b27fc8f6909930b2b516b",
        "h": "fbfdb4d321564f2c9656b78a90801831564986275a778b22f954df78c19b22d5",
        "vx": "50719ae0d767e4327d80f7f3dec273bb4f6989fca33067cc3fe228a085eae5e8",
        "vy": "6106d4c859934a200407f047d06245e156139e3cd7e51761f41e9617e6d35c5f",
        "layer": "8dceeebcb900c0e94e87ee115a985140fcbffb9b924d7cc0ddc7c7592b761116",
        "mode": "a8a23fd6228fee4dea6efb89b0511c8cc119c5120f0e65c0ccac8b6dfdcbb097",
        "capacity_bps": "341bfa5c509ddbb07690bd9467e2cac278683150a17fc763a5c87388af4d64da",
        "ris_partner": "b0a4f98ae0d7e7571b651806328d00379ac751b4e9a2a4e57800a3e71f8eba2e",
    },
    "fig9-phase": {
        "x": "2a4ea80c98e4d76c3ed1410e2447da34d707cd7cc0d71e29936b6e58f46526ea",
        "h": "25c1167242e7b3981f53d40db76696561638e8f0b1fe8ac0cdc3ae061200af3c",
        "vx": "375c75c33aa773d981460376fea6532ae7e440da36010de14140a8589a2d7799",
        "vy": "bb918147fe10391b43adeba4bd21b9ef32e5bd6c5076c3517733a05ed6dd0569",
        "layer": "7abd0fdf6b30cde67208d377bd97230a9e1bab55e80b099447b59b53a2309966",
        "mode": "bb918147fe10391b43adeba4bd21b9ef32e5bd6c5076c3517733a05ed6dd0569",
        "capacity_bps": "75b9c6f6da3c23aa9984dc11cba035789d60a37238298c032bcf6295c3496b3f",
        "ris_partner": "abc127d44cea14cb76e589bc2e611d7e260ff832ac1cf23e14447f628c70a0c7",
    },
    "fig9-phase-stationary": {
        "x": "baa5a14d970df5f42a1caf5416d220dccba8fc3bd0850c5cd70e010a80da4df0",
        "h": "e42c938e5bfb322aae41a546ee3c9ff88555c7f008b99d9594c93ef7665431b4",
        "vx": "6449188e924c384f658e7b542805738263e60fca98a074617504e696ece5300d",
        "vy": "ff6698a6e831ffcf47af2fed388ffc262f319e72b26cd140929d1e19b1246ad4",
        "layer": "a387ebff53675618e4d8ed001f81f815948afccb262f7fdb62cdc748a8a08b48",
        "mode": "ff6698a6e831ffcf47af2fed388ffc262f319e72b26cd140929d1e19b1246ad4",
        "capacity_bps": "60314eca2c4e231f0034f433fb93d2d6d2ba453f8d3e94b29b29c1fb6cc24477",
        "ris_partner": "2aadcd563462f800783d4757407ad8f6e63707d3c521e6e35ef2a84a3ba76c01",
    },
    "fig12-ipr-dense-seed-2e70": {
        "x": "0b4d40bfcf633443889e7bff9b5944b82ed276306eab8963e34be585c5a856c7",
        "h": "c944399c81594866ff8445158cc6735dda3d4333b065ea690c10f0ecf7cba403",
        "vx": "9fa3bad9663900c8be55e4343ff3c454897461bbad9e32d8379b2821b205ffca",
        "vy": "77d58be68b53dca9f8560da61afe5c930378fe41e70407f38b53e4bd10835277",
        "layer": "b0c8f6751838ce94f8391df7e568b7fd9501cad031db4744ab859e173e2314e7",
        "mode": "1f0d438b466acf0132753b3d9aaeda3cfa96275ceacac2532550eedd647b2794",
        "capacity_bps": "df5949afa9762a302892b6601517a4db3328e790a9a54c39c7496a43c55f8a12",
        "ris_partner": "d8979bc2c43997d95a8a92049d1f17808c0e94f3be1e126222db75cb6961468b",
    },
    "fig12-ipr-dense-seed-2e200": {
        "x": "5efa29c2bd890bd3642fe44a39b5dba3b99e04ac536a8a5288c2b210c7cb1ff3",
        "h": "14e3fbaf42638be3ff774e0e729d0a273215238e4f90fdd62dc82871c7271a9c",
        "vx": "be63ba8e429e7e1f29530233584cc72b05ec6700fc6a36389fe673fc6d4b2202",
        "vy": "3dfbb25e94cc043c45de12d86c39868109b6c4fc660722195a15ef9e223b8c6a",
        "layer": "2adc41f0019c34f5fe7bb55a16f68ab199c7dc2576ed294d72ce9bdd5656b842",
        "mode": "1001e7b880c828f93e18a75b0b794aefa7fe5034a0cf7631b488d1e8110b369e",
        "capacity_bps": "a9bae8eabc06f6660b078d28fe49b1a79f5d9aaa0e2d6cb46b0d74de1c5528fa",
        "ris_partner": "5f56606b42bf0febf810c14fd59a5e7d2696a75c876801ef9183db4a9a6cf1c6",
    },
    "fig12-ipr-dense-backoff-1": {
        "x": "ac50450404d2ce981d3953b6a36ae4bd70f1a6821bed1cb97918690783478212",
        "h": "5da2809351c5e10fd362ec22c7973e3c4b8aaa3029307afc37204f967cb5a3c8",
        "vx": "723075a2d86e31316b7e7b00aed0e2756c128f885d03957cfa393744503377a4",
        "vy": "4bacaf2168284162c08c5c6b49c66ec3947395c8a5f9c45a7aac5f3652314cd2",
        "layer": "17f5c24fd8bab12172c5bc05e06eda282539642d6da1ef05c0c438768f030a50",
        "mode": "f1a74bf58ee44df3cfb738917aa135f1046e7c0f8cc39e54d10ce40746a19947",
        "capacity_bps": "7ecb4b19379b42507ce7da24673388845b93aa6edfaa27140d182ec246231232",
        "ris_partner": "977375d88aa5133f33ec02105dcbe46f08606f1c5e8f9d20850b1b6f70265fac",
    },
    "fig12-ipr-dense-backoff-32": {
        "x": "a8875618a8c02b08d2578559d236dfb6998fd518eb2ff37ced988069ceb94bb3",
        "h": "fe4ebc84b7c5fa53f4235cb9763dee1e30153f5b66c1c8fefb7e790cc0baf0ba",
        "vx": "b10bf66819bde6d1e7b4e9824332ed436f1ca1a664c90b64eead781a0df60614",
        "vy": "92d694f62ac3bbae513f1d2188e0eb40fde2cf3f928fd5a75c329035643373ac",
        "layer": "bf3b042a8012a4183760acd255be84c8244d0529ceec529f36b97611cdaa162c",
        "mode": "1cf08dedbec14a1c939a93dd78eced411fee5cbedede5cc0cf58870cacc2aaf5",
        "capacity_bps": "66ce045d44495ab72c4cf42d660c7e2bffd575cc9949d0c6f72fdf052f636e82",
        "ris_partner": "990fabd775a365a709e3edd64aa26936e04b75e8a6134b18c59ac3e615ddff23",
    },
}
RAW_ARRAYS = ("x", "h", "vx", "vy", "layer", "mode", "capacity_bps", "ris_partner")

# variant -> (builtin, --set assignments).  The default coefficient puts
# every layer pair out of reach; at 10, fig12-ipr flies with cross-layer
# pairs on each of its 100 ticks.  fig9-phase with a stationary surface is
# the one flight that plans quantized phases with ``low_fixed`` and its
# degenerate box: 20 plans, a link served on all 100 ticks.  The dense variants keep seed 1's
# placement and vary the switch draws: a three-word seed, a seed of seven
# words (more than the seed sequence's pool of four), a ceiling of 1 that
# draws no counter, and the widest ceiling.
DENSE_10S = ("duration_s", "10")
VARIANTS = {
    "fig12-ipr-xl": (
        "fig12-ipr",
        (("airspace.vertical_separation_coeff", "10"), ("duration_s", "10")),
    ),
    "fig9-phase-stationary": ("fig9-phase", (("ris_mode", "stationary"), ("duration_s", "10"))),
    "fig12-ipr-dense-seed-2e70": ("fig12-ipr-dense", (("seed", str(2**70)), DENSE_10S)),
    "fig12-ipr-dense-seed-2e200": (
        "fig12-ipr-dense",
        (("seed", str(2**200 + 12345)), DENSE_10S),
    ),
    "fig12-ipr-dense-backoff-1": ("fig12-ipr-dense", (("initial_backoff", "1"), DENSE_10S)),
    "fig12-ipr-dense-backoff-32": ("fig12-ipr-dense", (("initial_backoff", "32"), DENSE_10S)),
}

# uamsim delay-bounds with default arguments: the default protocol, loads
# 5,15,25,35 Mb, budgets to 2 s on a 5 ms grid
DELAY_BOUNDS = ("0c4b1ab9232dfdab90904d914462e4f36c41744da8341b85a9645c29e8a42c24", 4801)


def seeded(name):
    """Builtin or variant ``name`` at seed 1."""
    base, settings = VARIANTS.get(name, (name, ()))
    return scenarios.apply_settings(scenarios.get_scenario(base, seed=1), settings)


@lru_cache(maxsize=None)
def run_builtin(name):
    """The trace of ``seeded(name)``, flown once per test run."""
    return engine.run(seeded(name))


def write_artifacts(name, out):
    """Write the three deterministic artifacts of builtin ``name`` at seed 1."""
    trace = run_builtin(name)
    engine.write_trace(trace, str(out / "trace.csv"))
    engine.write_events(trace, str(out / "events.csv"))
    engine.write_metrics(engine.summarize(trace), str(out / "metrics.txt"))


def digest(path):
    blob = path.read_bytes()
    return hashlib.sha256(blob).hexdigest(), blob.count(b"\n")


def test_every_builtin_is_pinned():
    assert sorted(GOLDEN) == sorted(scenarios.BUILTIN)


def mismatch(name, fname, out):
    """Why ``fname`` of builtin ``name``, written in ``out``, misses its
    pinned digest.  For trace.csv the per-row reference tells the writer
    from the flight: where it matches the pin, its first difference from the
    written file names the (tick, row)."""
    message = f"{name}: {fname} differs from its pinned digest"
    if fname != "trace.csv":
        return message
    trace = run_builtin(name)
    write_trace_per_row(trace, str(out / "reference.csv"))
    if digest(out / "reference.csv") != GOLDEN[name][fname]:
        return message + "; so does the per-row reference: the flight changed, not the writer"
    written, reference = ((out / f).read_bytes() for f in (fname, "reference.csv"))
    return message + "; the per-row reference matches it, so the writer differs, " + first_difference(
        written, reference, len(trace.ids)
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_artifacts_match_their_digests(name, tmp_path):
    write_artifacts(name, tmp_path)
    for fname in FILES:
        got = digest(tmp_path / fname)
        assert got == GOLDEN[name][fname], mismatch(name, fname, tmp_path)


@pytest.mark.parametrize("name", sorted(RAW))
def test_raw_trace_arrays_match_their_digests(name):
    trace = run_builtin(name)
    got = {
        key: hashlib.sha256(np.ascontiguousarray(getattr(trace, key)).tobytes()).hexdigest()
        for key in RAW_ARRAYS
    }
    differ = [key for key in RAW_ARRAYS if got[key] != RAW[name][key]]
    assert differ == [], f"{name}: {', '.join(differ)} differ from their pinned digests"


def test_cross_layer_variant_flies_cross_layer_pairs(monkeypatch):
    """The variant's digests cover the cross-layer rule: it finds pairs in
    every fleet the run builds, one a tick and a second on a tick with a
    release."""
    counts, rule = [], airspace.cross_layer_conflicts

    def counted(fleet, cfg):
        codes = rule(fleet, cfg)
        counts.append(len(codes))
        return codes

    monkeypatch.setattr(airspace, "cross_layer_conflicts", counted)
    trace = engine.run(seeded("fig12-ipr-xl"))
    releases = {t for t, _, kind, _ in trace.events if kind == "LS_REQ"}
    assert len(counts) == 100 + len(releases) and min(counts) > 0 and sum(counts) == 1089


def test_delay_bounds_match_their_digest(tmp_path, capsys):
    assert main(["delay-bounds", "--out", str(tmp_path)]) == 0
    got = digest(tmp_path / "delay_bounds.csv")
    assert got == DELAY_BOUNDS, "delay_bounds.csv differs from its pinned digest"
