"""LRU refreshes that could change no eviction order write nothing.

``ResultStore.touch_many`` skips its index write when the touched keys
already hold the newest ticks in the order a refresh would give them.
The property below holds it to the always-write refresh it replaced,
copied verbatim into :class:`AlwaysWriteStore`: over random traces the
two stores must agree on every return value, counter, surviving entry
and LRU order.
"""

from typing import Dict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.engine import BatchSolverEngine
from repro.store import ResultStore
from repro.store.atomic import FileLock


class AlwaysWriteStore(ResultStore):
    """The reference: every refresh of a present key rewrites the index."""

    def touch_many(self, keys) -> None:
        """Refresh the LRU tick of several keys in one index write."""
        keys = [key for key in keys if key]
        if not keys:
            return
        try:
            with FileLock(self.lock_path):
                index = self._load_index()
                entries: Dict[str, Dict[str, int]] = index["entries"]  # type: ignore[assignment]
                tick = int(index.get("tick", 0))
                dirty = False
                for key in keys:
                    if key in entries:
                        tick += 1
                        entries[key]["tick"] = tick
                        dirty = True
                if dirty:
                    index["tick"] = tick
                    self._save_index(index)
        except OSError:
            self._count("errors")


#: Five keys; traces touch and read keys that were never stored too.
KEYS = [c * 64 for c in "abcde"]
_key = st.sampled_from(KEYS)

_op = st.one_of(
    st.tuples(st.just("put"), _key, st.integers(0, 9)),
    st.tuples(st.just("put_many"), st.lists(_key, max_size=4)),
    st.tuples(st.just("touch"), st.lists(_key, max_size=6)),
    st.tuples(st.just("get"), _key, st.booleans()),
    st.tuples(st.just("rebuild")),  # a saved tick-0 index
    st.tuples(st.just("lose_index")),  # index.json gone
    st.tuples(st.just("damage_index")),  # unreadable index.json
    st.tuples(st.just("gc"), st.integers(0, 4)),
)


def _apply(store, op, size):
    name = op[0]
    if name == "put":
        return store.put(op[1], {"v": op[2]})
    if name == "put_many":
        return store.put_many({key: {"v": 1} for key in op[1]})
    if name == "touch":
        return store.touch_many(op[1])
    if name == "get":
        return store.get(op[1], touch=op[2])
    if name == "rebuild":
        store._ensure_dirs()
        return store._save_index(store._rebuild_index())
    if name == "lose_index":
        return store.index_path.unlink(missing_ok=True)
    if name == "damage_index":
        store._ensure_dirs()
        return store.index_path.write_text("][")
    return store.gc(max_bytes=op[1] * size)


def _state(store):
    """LRU order (oldest first), live object files and counters."""
    entries = store._load_index()["entries"]
    order = sorted(entries, key=lambda key: (entries[key]["tick"], key))
    objects = sorted(p.stem for p in (store.root / "objects").rglob("*.json"))
    return order, objects, store.snapshot_counters()


A, B = KEYS[:2]


@settings(max_examples=200, deadline=None)
@given(trace=st.lists(_op, max_size=24))
# Tick-0 entries tie, so the touched key is not yet the newest.
@example(trace=[("put", A, 0), ("put", B, 0), ("rebuild",), ("touch", [A])])
# A refresh must also rewrite an index it had to rebuild.
@example(trace=[("put", A, 0), ("damage_index",), ("touch", [A])] * 2)
@example(trace=[("put", B, 0), ("lose_index",), ("get", B, True)])
def test_touch_skip_matches_always_write(tmp_path_factory, trace):
    root = tmp_path_factory.mktemp("touch")
    probe = ResultStore(root / "probe")
    probe.put(KEYS[0], {"v": 0})
    size = probe.stats()["total_bytes"]
    store = ResultStore(root / "skip", max_bytes=3 * size)
    reference = AlwaysWriteStore(root / "ref", max_bytes=3 * size)
    for op in trace:
        assert _apply(store, op, size) == _apply(reference, op, size), op
        assert _state(store) == _state(reference), op


def test_touching_the_newest_keys_in_order_writes_nothing(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put_many({KEYS[0]: {"v": 0}, KEYS[1]: {"v": 1}})
    before = store.index_path.stat()
    store.touch_many([KEYS[0], KEYS[1], KEYS[2]])  # KEYS[2] is absent
    store.touch_many([KEYS[1], KEYS[0], KEYS[1]])  # last occurrence: 0, 1
    assert store.get(KEYS[1]) == ({"v": 1}, b"")
    after = store.index_path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (
        before.st_ino, before.st_mtime_ns
    )
    store.touch_many([KEYS[1], KEYS[0]])  # a new order: written
    entries = store._load_index()["entries"]
    assert entries[KEYS[0]]["tick"] > entries[KEYS[1]]["tick"]


def test_repeated_warm_sweep_leaves_the_index_bytes(tmp_path):
    store = ResultStore(tmp_path / "cache")
    scn = api.scenario("quadrocopter")
    values = np.geomspace(1e-5, 1e-2, 5000)  # three store groups
    cold = api.sweep(scn, "rho_per_m", values, cache=store)
    index = store.index_path.read_bytes()
    for _ in range(2):
        warm = api.sweep(
            scn, "rho_per_m", values, engine=BatchSolverEngine(), cache=store
        )
        assert warm.manifest.to_json() == cold.manifest.to_json()
        assert store.index_path.read_bytes() == index
    assert store.counters["hits"] == 6
    assert store.counters["puts"] == 3
