"""Pinned artifacts: every builtin at seed 1, and ``uamsim delay-bounds`` with
its defaults, write the same bytes as before.  Four builtins and five
variants also pin the raw state arrays of their trace, every bit of which the
files' 6 decimals would not show.

A change that alters a digest must explain the new numbers in CHANGES.md and
update the table below.
"""

import hashlib
from functools import lru_cache

import numpy as np
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
        "x": "c4ba8bf049403b86b1f91446e729590a93bf4d35e0c3c542592cdcda6cac76b9",
        "h": "c6e50c9377ddc308f1f008a544d6290be280096a541a80418e351360e3ebb989",
        "vx": "90d698af666db714af278c8276c2ebfe70b507d2f00d7d46db3fa6152fecac37",
        "vy": "b8fa09e40e3922993cd2e3c3e1aa4762f961d66a394ec324993217670f48c197",
        "layer": "d5ec8f2261399f79cc2e5e544b5c144d0caace8b0dc25a76cd83e53b9046637c",
        "mode": "8e1c35c180ac0fb730f8bb42394ce74617aae1b6ce8d02f6155615a9cc4bbb16",
        "capacity_bps": "1005cf1a83f78c5ddbbddf6b71e5dc83b33e4d5682f207760f8f7762bb9f5fb6",
        "ris_partner": "411a42ca7f91053ba24324f61ce1f657d2e685074193ec9c230fa763a57388a1",
    },
    "fig12-ipr-dense": {
        "x": "c34a2a8938e3af571b1ee865a0ae79b87e77223d874bf02bb4e7752fa8c0ceea",
        "h": "c0c441dc6ce85146d8b0fb3b0a44f1f858ebbaebe8af0d05b9b3d91d23b05bfa",
        "vx": "2a8e90931aaf315d9d7c7c7e4b65670421e492851032b9850bbdd06704ba689c",
        "vy": "baf94cec2c80b7989141583f5c664d1adece486322c61baf86ac9dfef3f61826",
        "layer": "8f259ce6062b31d986b3395e373df6fda155201a96c2910c2fc713b465194d71",
        "mode": "58fca0557542a1f12eccb1405e18ccf052842145f60d350894ca0aab9906deab",
        "capacity_bps": "21ef918a96ab8e98a9d31232bbad29c6270ca88ade562a4058731b697493fee9",
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
        "x": "8bdbfcb22c1e6e0b6d3251e264b425263654767e629642ccdce79a0d6025ab47",
        "h": "c4806820f24f31fb793f5f1d49559f96cc7071773d40bd6f4e0812fe1cbc0e01",
        "vx": "a6cae7463501c8b83901ad9a91bb25c58cd4e3f76dc6327825ef1f0499bf2443",
        "vy": "442f5bc233d4ceae8cb55d048660aaa5673d82c7402cda280a145e5fd30318f4",
        "layer": "8dceeebcb900c0e94e87ee115a985140fcbffb9b924d7cc0ddc7c7592b761116",
        "mode": "a8a23fd6228fee4dea6efb89b0511c8cc119c5120f0e65c0ccac8b6dfdcbb097",
        "capacity_bps": "5527cd8ee761c8aa4ae00c76c98bd659ac21cec70de95bbe9d4fc360397f50ce",
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
    "fig12-ipr-dense-seed-2e70": {
        "x": "bdbc177545263fc60fefcd505d0a488a51da68e6a10e04b464f1e83eecfabea8",
        "h": "0d62130a772518b67a8ace25c4c3cf4e0ccab6a66e9b3296f1d146d3f6411804",
        "vx": "bfbf866ce890417d45e66c03f9552e246382f9011b2105fd6e388b5bc0b62bcf",
        "vy": "84b30dec129482e3f99bbe40130f5f80762475b2bfdd620f861c41b0e4d9681b",
        "layer": "b0c8f6751838ce94f8391df7e568b7fd9501cad031db4744ab859e173e2314e7",
        "mode": "1f0d438b466acf0132753b3d9aaeda3cfa96275ceacac2532550eedd647b2794",
        "capacity_bps": "c507d996743caac71e2efe852e485e4200ab94729d3d09ea57e003b3ccd17adf",
        "ris_partner": "d8979bc2c43997d95a8a92049d1f17808c0e94f3be1e126222db75cb6961468b",
    },
    "fig12-ipr-dense-seed-2e200": {
        "x": "be400d2856a4cb832c1f7d019100d8973678323e2e76d0b3b58b88c0257f2f93",
        "h": "e73bc44b706ebd0388489158cdf71d84b0819a2014a3740b4f612ea5d7ee02ec",
        "vx": "6502efc11d2acb843b40285e7d4f308b5b35fefe920c62bd7d8d4d41d9a2313d",
        "vy": "36cb9efebb4b25f146ba6bd35e10a8b19b08dc8fb14f58ae588f13dda9924a37",
        "layer": "2adc41f0019c34f5fe7bb55a16f68ab199c7dc2576ed294d72ce9bdd5656b842",
        "mode": "1001e7b880c828f93e18a75b0b794aefa7fe5034a0cf7631b488d1e8110b369e",
        "capacity_bps": "c862b57e5931f810d62b6050bb02effe2b67ac6cdb1370c393aba47e3124d392",
        "ris_partner": "5f56606b42bf0febf810c14fd59a5e7d2696a75c876801ef9183db4a9a6cf1c6",
    },
    "fig12-ipr-dense-backoff-1": {
        "x": "53a45dbb0821afa96ba13924a0a35a1d0b77a28c82040a85ffc34432541624b8",
        "h": "bf1572552dc03f06a6f906285aa0fec9a0fc1371381e6fa920927367cbd276cb",
        "vx": "2a59c6f36f9f49eb80063180b2de7aa968a77277dc6206fe6c5b2a0e40e5f5e3",
        "vy": "ed04eff3cd6f3b82ec758e090a967b7bea17f78eb3657832385eabe797ebe2a6",
        "layer": "17f5c24fd8bab12172c5bc05e06eda282539642d6da1ef05c0c438768f030a50",
        "mode": "f1a74bf58ee44df3cfb738917aa135f1046e7c0f8cc39e54d10ce40746a19947",
        "capacity_bps": "36ed936c7bd3c0a4bfdcfd1dfe2f78845f285b84948e14ba13b90e5887e06657",
        "ris_partner": "977375d88aa5133f33ec02105dcbe46f08606f1c5e8f9d20850b1b6f70265fac",
    },
    "fig12-ipr-dense-backoff-32": {
        "x": "e40ffb9da5533e35cd6ca313f90659ecda83969613ce4206b5305a5578b58e58",
        "h": "8c43c4bf91a1912caf48cd0c139381542bb3625078f201d0ec017b0de3bb1f19",
        "vx": "01c6087ac352a88e22e4b8aa6b56131e56873932300903bcb28d3e96858515bc",
        "vy": "1c9603f37d9394a8b61d3da317c691ff7350fb0a8a5f6dbe6d1065fb15f943bc",
        "layer": "bf3b042a8012a4183760acd255be84c8244d0529ceec529f36b97611cdaa162c",
        "mode": "1cf08dedbec14a1c939a93dd78eced411fee5cbedede5cc0cf58870cacc2aaf5",
        "capacity_bps": "21442b511c8f8f204a8fb1ea1f1492cf288510407e328e1e12f8be6516eceaeb",
        "ris_partner": "990fabd775a365a709e3edd64aa26936e04b75e8a6134b18c59ac3e615ddff23",
    },
}
RAW_ARRAYS = ("x", "h", "vx", "vy", "layer", "mode", "capacity_bps", "ris_partner")

# variant -> (builtin, --set assignments).  The default coefficient puts
# every layer pair out of reach; at 10, fig12-ipr flies with cross-layer
# pairs on each of its 100 ticks.  The dense variants keep seed 1's
# placement and vary the switch draws: a three-word seed, a seed of seven
# words (more than the seed sequence's pool of four), a ceiling of 1 that
# draws no counter, and the widest ceiling.
DENSE_10S = ("duration_s", "10")
VARIANTS = {
    "fig12-ipr-xl": (
        "fig12-ipr",
        (("airspace.vertical_separation_coeff", "10"), ("duration_s", "10")),
    ),
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_artifacts_match_their_digests(name, tmp_path):
    write_artifacts(name, tmp_path)
    for fname in FILES:
        got = digest(tmp_path / fname)
        assert got == GOLDEN[name][fname], f"{name}: {fname} differs from its pinned digest"


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
    """The variant's digests cover the cross-layer rule: it finds pairs."""
    counts, rule = [], engine.cross_layer_conflicts

    def counted(fleet, cfg):
        codes = rule(fleet, cfg)
        counts.append(len(codes))
        return codes

    monkeypatch.setattr(engine, "cross_layer_conflicts", counted)
    engine.run(seeded("fig12-ipr-xl"))
    assert len(counts) == 100 and min(counts) > 0 and sum(counts) == 1025


def test_delay_bounds_match_their_digest(tmp_path, capsys):
    assert main(["delay-bounds", "--out", str(tmp_path)]) == 0
    got = digest(tmp_path / "delay_bounds.csv")
    assert got == DELAY_BOUNDS, "delay_bounds.csv differs from its pinned digest"
