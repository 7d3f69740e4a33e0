"""Edge cases of the in-memory LRU memo (repro.engine.cache)."""

import threading

import pytest

from repro.engine.cache import CacheInfo, LruCache


class TestZeroMaxsize:
    def test_get_is_a_no_op(self):
        cache = LruCache(maxsize=0)
        assert cache.get("key") is None
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_put_is_a_no_op(self):
        cache = LruCache(maxsize=0)
        cache.put("key", 1)
        assert len(cache) == 0
        assert cache.get("key") is None

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=-1)


class TestHitRate:
    def test_zero_lookups_is_zero_not_nan(self):
        assert LruCache().info().hit_rate == 0.0
        assert CacheInfo(hits=0, misses=0, maxsize=4, currsize=0).hit_rate == 0.0

    def test_mixed_lookups(self):
        cache = LruCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.info().hit_rate == pytest.approx(0.5)

    def test_clear_resets_counters(self):
        cache = LruCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


class TestEvictionOrder:
    def test_get_refreshes_recency(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # b is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_refreshes_recency(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: b is the victim next
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 10

    def test_interleaved_threaded_get_put_stays_bounded(self):
        """Hammer one small cache from many threads; invariants hold."""
        cache = LruCache(maxsize=8)
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    key = (base + i) % 16
                    if i % 2:
                        cache.put(key, key)
                    else:
                        value = cache.get(key)
                        assert value is None or value == key
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(base,))
            for base in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8
        info = cache.info()
        assert info.currsize <= info.maxsize
        assert info.hits + info.misses == 8 * 250  # every get counted
        assert 0.0 <= info.hit_rate <= 1.0


def state(cache):
    """Counters plus the entries in LRU order (oldest first)."""
    info = cache.info()
    return info.hits, info.misses, info.currsize, list(cache._data.items())


class TestBulkOperations:
    """``get_many``/``put_many`` are the per-key loop under one lock."""

    @pytest.mark.parametrize("maxsize", [1, 3, 8, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_match_the_per_key_loop(self, maxsize, seed):
        import random

        rng = random.Random(seed)
        bulk, loop = LruCache(maxsize), LruCache(maxsize)
        for step in range(60):
            # Batches repeat keys and may exceed maxsize.
            keys = [rng.randrange(24) for _ in range(rng.randrange(1, 20))]
            if rng.random() < 0.5:
                got = bulk.get_many(keys)
                assert got == [loop.get(key) for key in keys]
            else:
                items = [(key, (step, key)) for key in keys]
                bulk.put_many(items)
                for key, value in items:
                    loop.put(key, value)
            assert state(bulk) == state(loop)

    def test_duplicate_keys_keep_the_last_value_and_position(self):
        cache = LruCache(maxsize=2)
        cache.put_many([("a", 1), ("b", 2), ("a", 3), ("c", 4), ("a", 5)])
        assert list(cache._data.items()) == [("c", 4), ("a", 5)]
        assert cache.get_many(["a", "a", "b"]) == [5, 5, None]
        assert (cache.info().hits, cache.info().misses) == (2, 1)

    def test_zero_maxsize_is_a_no_op(self):
        cache = LruCache(maxsize=0)
        cache.put_many([("a", 1), ("b", 2)])
        assert cache.get_many(["a", "b", None]) == [None, None, None]
        assert state(cache) == (0, 0, 0, [])

    def test_none_keys_skipped_and_not_counted(self):
        cache = LruCache(maxsize=4)
        cache.put_many([(None, 1), ("a", 2), (None, 3)])
        assert state(cache) == (0, 0, 1, [("a", 2)])
        assert cache.get_many([None, "a", None, "b"]) == [None, 2, None, None]
        assert state(cache) == (1, 1, 1, [("a", 2)])

    def test_empty_batches(self):
        cache = LruCache(maxsize=4)
        cache.put_many([])
        assert cache.get_many([]) == []
        assert state(cache) == (0, 0, 0, [])

    def test_threaded_bulk_calls_lose_no_update(self):
        """More threads than cores, fast switching: every non-None key
        looked up is counted once and no value is torn."""
        import sys

        cache = LruCache(maxsize=16)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    keys = [(base + i + j) % 40 for j in range(7)]
                    if i % 2:
                        cache.put_many([(key, key * 10) for key in keys] + [(None, 0)])
                    else:
                        values = cache.get_many(keys + [None])
                        assert values[-1] is None
                        for key, value in zip(keys, values):
                            assert value is None or value == key * 10
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(base,))
                for base in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        info = cache.info()
        assert info.hits + info.misses == 8 * 100 * 7
        assert info.currsize <= info.maxsize
