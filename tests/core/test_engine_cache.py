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
