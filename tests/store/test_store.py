"""ResultStore behaviour: round trips, entry documents, LRU eviction,
degradation."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.measurements.batch import BatchCampaignConfig, run_campaign
from repro.store import ResultStore, resolve_store
from repro.store.fingerprint import canonical_json
from repro.store.store import (
    _document,
    _parse_document,
    default_cache_dir,
    default_store,
)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


KEY_A = "aa" * 32
KEY_B = "bb" * 32
KEY_C = "cc" * 32


class TestRoundTrip:
    def test_put_then_get(self, store):
        body = {"n": 2, "values": [1.5, 2.5]}
        assert store.put(KEY_A, body) is True
        assert store.get(KEY_A) == (body, b"")
        assert store.counters["puts"] == 1
        assert store.counters["hits"] == 1
        assert store.counters["bytes_written"] > 0
        assert store.counters["bytes_read"] > 0

    def test_missing_key_is_a_miss(self, store):
        assert store.get(KEY_A) is None
        assert store.counters["misses"] == 1

    def test_unencodable_body_is_swallowed(self, store):
        assert store.put(KEY_A, {"bad": float("nan")}) is False
        assert store.counters["errors"] == 1

    def test_tail_round_trips(self, store):
        body, tail = {"n": 3}, b"\x00\xff" * 12
        assert store.put(KEY_A, body, tail) is True
        assert store.get(KEY_A) == (body, tail)
        assert store.counters["bytes_read"] > len(tail)

    def test_put_many_with_tails(self, store):
        stored = store.put_many(
            {KEY_A: {"v": 1}, KEY_B: {"v": 2}}, {KEY_A: b"\x01"}
        )
        assert stored == 2
        assert store.get(KEY_A) == ({"v": 1}, b"\x01")
        assert store.get(KEY_B) == ({"v": 2}, b"")

    def test_put_many_and_stats(self, store):
        stored = store.put_many({KEY_A: {"v": 1}, KEY_B: {"v": 2}})
        assert stored == 2
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        assert store.get(KEY_A) == ({"v": 1}, b"")
        assert store.get(KEY_B) == ({"v": 2}, b"")


class TestCorruption:
    def _corrupt(self, store, key, text):
        path = store._object_path(key)
        path.write_text(text)

    def test_garbage_bytes_become_a_miss(self, store):
        store.put(KEY_A, {"v": 1})
        self._corrupt(store, KEY_A, "{ not json")
        assert store.get(KEY_A) is None
        assert store.counters["corrupt"] == 1
        assert not store._object_path(KEY_A).exists()  # dropped

    def test_checksum_mismatch_becomes_a_miss(self, store):
        store.put(KEY_A, {"v": 1})
        self._corrupt(
            store,
            KEY_A,
            json.dumps({"key": KEY_A, "sha256": "0" * 64, "body": {"v": 1}}),
        )
        assert store.get(KEY_A) is None
        assert store.counters["corrupt"] == 1

    def test_verify_reports_without_repair(self, store):
        store.put(KEY_A, {"v": 1})
        store.put(KEY_B, {"v": 2})
        self._corrupt(store, KEY_A, "broken")
        report = store.verify(repair=False)
        assert report == {"checked": 2, "corrupt": 1}
        assert store._object_path(KEY_A).exists()

    def test_verify_repairs(self, store):
        store.put(KEY_A, {"v": 1})
        self._corrupt(store, KEY_A, "broken")
        assert store.verify(repair=True) == {"checked": 1, "corrupt": 1}
        assert not store._object_path(KEY_A).exists()

    def test_index_corruption_is_rebuilt(self, store):
        store.put(KEY_A, {"v": 1})
        store.index_path.write_text("][")
        assert store.stats()["entries"] == 1
        assert store.get(KEY_A) == ({"v": 1}, b"")

    def test_repair_saves_an_unparseable_index(self, store):
        store.put(KEY_A, {"v": 1})
        store.put(KEY_B, {"v": 2})
        store.index_path.write_text("][")
        self._corrupt(store, KEY_A, "broken")
        assert store.verify(repair=True) == {"checked": 2, "corrupt": 1}
        index = json.loads(store.index_path.read_text())
        assert sorted(index["entries"]) == [KEY_B]
        corrupt = store.counters["corrupt"]
        assert store.stats()["entries"] == 1
        assert store.counters["corrupt"] == corrupt

    def test_repair_saves_a_missing_index(self, store):
        store.put(KEY_A, {"v": 1})
        store.put(KEY_B, {"v": 2})
        store.index_path.unlink()
        self._corrupt(store, KEY_B, "broken")
        assert store.verify(repair=True) == {"checked": 2, "corrupt": 1}
        index = json.loads(store.index_path.read_text())
        assert sorted(index["entries"]) == [KEY_A]


#: Index documents that parse as JSON but not as an index: a non-dict
#: entry, a non-int ``size`` or ``tick`` (bools and floats included), a
#: missing field, a non-int clock.
MALFORMED_INDEXES = {
    "int_entry": lambda index: index["entries"].update({KEY_A: 5}),
    "list_entry": lambda index: index["entries"].update({KEY_A: [1, 2]}),
    "str_size": lambda index: index["entries"][KEY_A].update(size="12"),
    "float_size": lambda index: index["entries"][KEY_A].update(size=12.5),
    "bool_tick": lambda index: index["entries"][KEY_A].update(tick=True),
    "null_tick": lambda index: index["entries"][KEY_A].update(tick=None),
    "no_size": lambda index: index["entries"][KEY_A].pop("size"),
    "str_clock": lambda index: index.update(tick="3"),
}


class TestMalformedIndex:
    """A malformed index is a counted corrupt read, then rebuilt from
    the objects tree: no store call raises."""

    @pytest.fixture(params=sorted(MALFORMED_INDEXES))
    def damaged(self, request, store):
        store.put(KEY_A, {"v": 1})
        store.put(KEY_B, {"v": 2})
        index = json.loads(store.index_path.read_text())
        MALFORMED_INDEXES[request.param](index)
        store.index_path.write_text(json.dumps(index))
        return store

    def test_get(self, damaged):
        assert damaged.get(KEY_A) == ({"v": 1}, b"")
        assert damaged.counters["corrupt"] == 1
        index = json.loads(damaged.index_path.read_text())
        assert sorted(index["entries"]) == [KEY_A, KEY_B]

    def test_put(self, damaged):
        assert damaged.put(KEY_C, {"v": 3}) is True
        assert damaged.counters["corrupt"] == 1
        assert damaged.stats()["entries"] == 3
        assert damaged.get(KEY_C) == ({"v": 3}, b"")

    def test_stats(self, damaged):
        stats = damaged.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        assert damaged.counters["corrupt"] == 1

    def test_verify(self, damaged):
        assert damaged.verify(repair=False) == {"checked": 2, "corrupt": 0}
        # Repairing a damaged entry file drops its row from the index,
        # which reads (and rebuilds) the damaged index.
        damaged._object_path(KEY_A).write_text("broken")
        assert damaged.verify(repair=True) == {"checked": 2, "corrupt": 1}
        assert damaged.counters["corrupt"] == 2  # the entry, the index
        # The repair saved the rebuilt index: the file parses, and a
        # later read counts no further corrupt index.
        index = json.loads(damaged.index_path.read_text())
        assert sorted(index["entries"]) == [KEY_B]
        assert damaged.stats()["entries"] == 1
        assert damaged.counters["corrupt"] == 2
        assert damaged.get(KEY_B) == ({"v": 2}, b"")


def _old_document(key, body):
    """The entry document as first written: the whole wrapper encoded."""
    sha = hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()
    return canonical_json({"key": key, "sha256": sha, "body": body}).encode()


def _tailed_document(key, body, tail):
    """A tailed entry: the whole wrapper, ``blob`` included, then the tail."""
    sha = hashlib.sha256(canonical_json(body).encode() + tail).hexdigest()
    wrapper = {"blob": len(tail), "key": key, "sha256": sha, "body": body}
    return canonical_json(wrapper).encode() + tail


_names = st.one_of(
    st.sampled_from(["body", "key", "sha256", "n", "columns", "ü", "鍵"]),
    st.text(max_size=6),
)
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_names, inner, max_size=4),
    max_leaves=20,
)


class TestDocument:
    @settings(max_examples=300, deadline=None)
    @given(
        key=st.one_of(st.just(KEY_A), st.text(max_size=8)),
        body=st.dictionaries(_names, _json, max_size=5),
    )
    def test_document_equals_the_whole_wrapper_encoding(self, key, body):
        document = _document(key, body)
        assert document == _old_document(key, body)
        assert _document(key, body, b"") == document
        assert _parse_document(key, document) == (body, b"")

    @settings(max_examples=300, deadline=None)
    @given(
        key=st.one_of(st.just(KEY_A), st.text(max_size=8)),
        body=st.dictionaries(_names, _json, max_size=5),
        tail=st.binary(min_size=1, max_size=64),
    )
    def test_tail_round_trips(self, key, body, tail):
        document = _document(key, body, tail)
        assert document == _tailed_document(key, body, tail)
        parsed_body, parsed_tail = _parse_document(key, document)
        assert parsed_body == body
        assert bytes(parsed_tail) == tail

    def test_parse_rejects_another_keys_document(self):
        assert _parse_document(KEY_A, _document(KEY_B, {"v": 1})) is None
        assert _parse_document(KEY_A, _document(KEY_B, {}, b"\x00")) is None

    def test_whole_wrapper_entries_stay_warm(self, store):
        body = {"columns": {"d": "AAAAAAAA8D8="}, "n": 1, "key": "ü"}
        store.put(KEY_A, {"v": 0})
        store._object_path(KEY_A).write_bytes(_old_document(KEY_A, body))
        assert store.get(KEY_A) == (body, b"")
        assert store.verify(repair=False) == {"checked": 1, "corrupt": 0}
        assert store.counters["corrupt"] == 0


#: Key every pinned body is stored under: the producers' real keys hold
#: code fingerprints, which move with any edit to the fingerprinted
#: modules.
PIN_KEY = "5a" * 32

#: sha256 of the entry file each producer's body and tail become under
#: ``PIN_KEY``.  The campaign and chaos pins were recorded when every
#: entry was written as the canonical JSON of the whole ``{"key",
#: "sha256", "body"}`` wrapper; the Eq. 2 pin when its columns moved
#: from base64 strings in the body to one raw float64 tail (store
#: schema 2).  A chaos entry's manifest has ``git_rev`` cleared (it
#: names the checkout).
ENTRY_PINS = {
    "eq2.sweep":
        "26b5849f083ad41ecd92c547a8ae2b841e25bd00783d5e22c9643a991ffe6aaf",
    "campaign.shard":
        "5e174f4d3264b3655bd52adfbd9a265e914aef3edba49f8de0824a784209817d",
    "chaos.run":
        "86af58d8482d7d7ab79e564fe9b6aa18705746146377692aac94d87bda7b3410",
}


def _fill(kind, store):
    if kind == "eq2.sweep":  # 300 values: one group
        api.sweep(
            api.scenario("quadrocopter"), "rho_per_m",
            np.geomspace(1e-5, 1e-2, 300), cache=store,
        )
    elif kind == "campaign.shard":  # block_size covers every replica
        config = BatchCampaignConfig(
            profile="quadrocopter", distances_m=(80.0, 160.0),
            n_replicas=4, duration_s=2.0, seed=3, block_size=8,
        )
        run_campaign(config, parallel=False, cache=store)
    else:
        plan = api.FaultPlan(name="outage", seed=5).with_outage(6.5, 3.0)
        api.chaos(plan, scenario_name="airplane", seed=5, cache=store)


@pytest.mark.parametrize("kind", sorted(ENTRY_PINS))
def test_entry_file_bytes_pinned(tmp_path, kind):
    store = ResultStore(tmp_path / "cache")
    _fill(kind, store)
    (path,) = sorted((store.root / "objects").rglob("*.json"))
    raw = path.read_bytes()
    body, tail = _parse_document(path.stem, raw)
    assert raw == _document(path.stem, body, tail)
    assert bool(tail) == (kind == "eq2.sweep")
    if kind == "chaos.run":
        body["manifest"]["git_rev"] = None
    pinned = ResultStore(tmp_path / "pinned")
    assert pinned.put(PIN_KEY, body, tail)
    digest = hashlib.sha256(pinned._object_path(PIN_KEY).read_bytes())
    assert digest.hexdigest() == ENTRY_PINS[kind]


def _reformatted(raw, n):
    """Equal JSON in other bytes (the checksum still names the body)."""
    document, tail = raw[:len(raw) - n], raw[len(raw) - n:]
    return json.dumps(json.loads(document), indent=1).encode() + tail


def _wrong_key(raw, n):
    return _document(KEY_B, *_parse_document(KEY_A, raw))


def _flip(raw, at):
    return raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:]


def _declare(length):
    """Rewrite the head to declare a tail of ``length`` (raw digits)."""
    def damage(raw, n):
        body_at = raw.index(b'"body":')
        return b'{"blob":' + length(raw) + b"," + raw[body_at:]
    return damage


#: Damage that leaves an entry unreadable as its key's document.  ``n``
#: is the entry's tail length (0 for a plain entry).  The reformatted
#: and appended-bytes files still parse to the stored JSON, checksum
#: included: only their bytes differ.  A flipped tail byte lands in the
#: checksum of a plain entry.
DAMAGE = {
    "reformatted": _reformatted,
    "wrong-key": _wrong_key,
    "truncated-tail": lambda raw, n: raw[:-1],
    "flipped-body-byte": lambda raw, n: raw.replace(b"1.5", b"2.5"),
    "flipped-tail-byte": lambda raw, n: _flip(raw, len(raw) - 1 - n // 2),
    "appended-bytes": lambda raw, n: raw + b"\n",
    "declared-past-file": _declare(lambda raw: b"%d" % (len(raw) + 1)),
    "declared-zero": _declare(lambda raw: b"0"),
    "declared-negative": _declare(lambda raw: b"-8"),
    "declared-float": _declare(lambda raw: b"8.0"),
    "declared-leading-zero": _declare(lambda raw: b"024"),
    "declared-string": _declare(lambda raw: b'"24"'),
}


class TestDocumentDamage:
    """Every damage to a plain entry is a counted corrupt miss."""

    #: The raw tail the damaged entry is written with.
    TAIL = b""

    def _damaged(self, store, name):
        store.put(KEY_A, {"v": [1.5, "ü"], "key": KEY_B}, self.TAIL)
        path = store._object_path(KEY_A)
        path.write_bytes(DAMAGE[name](path.read_bytes(), len(self.TAIL)))
        return path

    @pytest.mark.parametrize("name", sorted(DAMAGE))
    def test_get_counts_a_corrupt_miss_and_drops(self, store, name):
        path = self._damaged(store, name)
        assert store.get(KEY_A) is None
        assert store.counters["corrupt"] == 1
        assert store.counters["misses"] == 1
        assert store.counters["hits"] == 0
        assert not path.exists()
        assert store.stats()["entries"] == 0

    @pytest.mark.parametrize("name", sorted(DAMAGE))
    def test_verify_counts_a_corrupt_entry_and_drops(self, store, name):
        path = self._damaged(store, name)
        assert store.verify(repair=False) == {"checked": 1, "corrupt": 1}
        assert path.exists()
        assert store.verify(repair=True) == {"checked": 1, "corrupt": 1}
        assert not path.exists()
        assert store.counters["corrupt"] == 2


class TestTailedDocumentDamage(TestDocumentDamage):
    """The same damage to an entry with a raw tail (24 bytes of float64)."""

    TAIL = np.array([1.5, -0.0, 5e-324], dtype="<f8").tobytes()

    def test_undamaged_entry_reads(self, store):
        store.put(KEY_A, {"v": 1}, self.TAIL)
        assert store.get(KEY_A) == ({"v": 1}, self.TAIL)
        assert store.verify(repair=False) == {"checked": 1, "corrupt": 0}


class TestLruEviction:
    def _entry_size(self, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        probe.put(KEY_A, {"v": 1})
        return probe.stats()["total_bytes"]

    def test_oldest_tick_is_evicted_first(self, tmp_path):
        size = self._entry_size(tmp_path)
        store = ResultStore(tmp_path / "cache", max_bytes=2 * size)
        store.put(KEY_A, {"v": 1})
        store.put(KEY_B, {"v": 2})
        store.get(KEY_A)  # refresh A: B becomes the LRU victim
        store.put(KEY_C, {"v": 3})
        assert store.counters["evictions"] == 1
        assert store.get(KEY_B) is None
        assert store.get(KEY_A) == ({"v": 1}, b"")
        assert store.get(KEY_C) == ({"v": 3}, b"")

    def test_touch_many_refreshes_in_one_pass(self, tmp_path):
        size = self._entry_size(tmp_path)
        store = ResultStore(tmp_path / "cache", max_bytes=3 * size)
        store.put_many({KEY_A: {"v": 1}, KEY_B: {"v": 2}, KEY_C: {"v": 3}})
        store.touch_many([KEY_A])
        assert store.gc(max_bytes=size) == 2  # keeps only the freshest
        assert store.get(KEY_A) == ({"v": 1}, b"")
        assert store.get(KEY_B) is None

    def test_zero_cap_disables_puts(self, tmp_path):
        store = ResultStore(tmp_path / "cache", max_bytes=0)
        assert store.put(KEY_A, {"v": 1}) is False
        assert store.put_many({KEY_A: {"v": 1}}) == 0
        assert store.get(KEY_A) is None


class TestMaintenance:
    def test_gc_enforces_a_temporary_cap(self, store):
        store.put_many({KEY_A: {"v": 1}, KEY_B: {"v": 2}})
        assert store.gc(max_bytes=0) == 2
        assert store.stats()["entries"] == 0
        assert store.max_bytes > 0  # instance cap restored

    def test_clear_removes_everything(self, store):
        store.put_many({KEY_A: {"v": 1}, KEY_B: {"v": 2}})
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        assert store.get(KEY_A) is None


class TestDegradation:
    def test_unwritable_root_never_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file where the cache dir should be")
        store = ResultStore(blocker)
        assert store.put(KEY_A, {"v": 1}) is False
        assert store.get(KEY_A) is None
        assert store.counters["errors"] >= 1
        # Every later operation stays a counted no-op.
        assert store.put_many({KEY_B: {"v": 2}}) == 0
        assert store.stats()["entries"] == 0


class TestEnvResolution:
    def test_explicit_false_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert resolve_store(False) is None

    def test_explicit_store_wins(self, store):
        assert resolve_store(store) is store

    def test_default_is_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert resolve_store(None) is None

    def test_cache_dir_opts_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store = resolve_store(None)
        assert store is not None
        assert store.root == tmp_path / "cache"

    def test_no_cache_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert resolve_store(None) is None

    def test_true_forces_the_default_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")  # True overrides opt-out
        store = resolve_store(True)
        assert store is not None
        assert store.root == tmp_path / "cache"
        assert default_store() is store  # per-directory singleton

    def test_default_cache_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
        assert default_cache_dir() == tmp_path / "explicit"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"
