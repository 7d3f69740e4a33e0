"""ExecBackend: ordered maps, pool reuse, degradation, crash recovery."""

import os
import threading
import time

import numpy as np
import pytest

from repro.exec import (
    ExecBackend,
    backend_for,
    configure,
    counters_snapshot,
    default_backend,
    resolve_workers,
)


def _double(x):
    return 2 * x


def _arrays(x):
    """A result that carries arrays of two dtypes and a Python value."""
    return {
        "v": np.full(16_384, float(x)),
        "n": np.arange(x, dtype=np.int64),
        "task": x,
    }


def _fragile(task):
    """Kill the whole worker process when the flag file exists."""
    flag, value = task
    if flag and os.path.exists(flag):
        os.remove(flag)
        os._exit(1)
    return value * 3


def _fragile_where(task):
    """:func:`_fragile`, also reporting which process ran the task."""
    return _fragile(task), os.getpid()


class TestMap:
    def test_serial_map_preserves_order(self):
        backend = ExecBackend(max_workers=1)
        assert backend.map(_double, range(7), parallel=False) == [
            0, 2, 4, 6, 8, 10, 12,
        ]

    def test_pooled_map_matches_serial(self):
        backend = ExecBackend(max_workers=2)
        try:
            tasks = list(range(23))
            assert backend.map(_double, tasks, parallel=True) == [
                _double(t) for t in tasks
            ]
        finally:
            backend.shutdown()

    def test_pooled_array_results_arrive_as_returned(self):
        backend = ExecBackend(max_workers=2)
        try:
            tasks = [1, 2, 3]
            outs = backend.map(_arrays, tasks, parallel=True)
            for out, want in zip(outs, map(_arrays, tasks)):
                assert out["task"] == want["task"]
                for name in ("v", "n"):
                    assert out[name].dtype == want[name].dtype
                    np.testing.assert_array_equal(out[name], want[name])
        finally:
            backend.shutdown()

    def test_single_task_stays_serial(self):
        backend = ExecBackend(max_workers=4)
        results, report = backend.map(
            _double, [21], parallel=True, with_report=True
        )
        assert results == [42]
        assert not report.pooled

    def test_pool_is_reused_across_maps(self):
        backend = ExecBackend(max_workers=1)
        try:
            backend.map(_double, range(4), parallel=True)
            backend.map(_double, range(4), parallel=True)
            assert backend.counters["exec.pool_spawns"] == 1
            assert backend.counters["exec.pool_reuse"] == 1
        finally:
            backend.shutdown()

    def test_thread_map_ordered_and_reused(self):
        backend = ExecBackend()
        try:
            assert backend.thread_map(_double, range(9)) == [
                _double(t) for t in range(9)
            ]
            before = backend.counters["exec.pool_reuse"]
            backend.thread_map(_double, range(9))
            assert backend.counters["exec.pool_reuse"] == before + 1
        finally:
            backend.shutdown()

    def test_failed_thread_map_leaves_no_work_behind(self):
        # Task 0 raises only once task 1 is running (both pass the
        # barrier); task 1 then outlives the raise by 0.2 s.  The call
        # must not return before every started task has finished, and
        # no task may start afterwards.
        barrier = threading.Barrier(2, timeout=10)
        lock = threading.Lock()
        started, finished = set(), set()

        def task(i):
            with lock:
                started.add(i)
            if i == 0:
                barrier.wait()
                raise ValueError("chunk 0 failed")
            if i == 1:
                barrier.wait()
                time.sleep(0.2)
            with lock:
                finished.add(i)
            return i

        backend = ExecBackend()
        try:
            with pytest.raises(ValueError, match="chunk 0 failed"):
                backend.thread_map(task, range(8), max_workers=2)
            with lock:
                assert started - finished == {0}
                seen = set(started)
            # The pool queue is FIFO: a later call runs after anything
            # left queued by the failed one.
            assert backend.thread_map(_double, [1], max_workers=2) == [2]
            assert started == seen
        finally:
            backend.shutdown()


class TestCrashRecovery:
    def test_worker_death_respawns_and_rereruns(self, tmp_path):
        flag = str(tmp_path / "die-once")
        with open(flag, "w") as fh:
            fh.write("x")
        backend = ExecBackend(max_workers=1)
        try:
            tasks = [(flag, v) for v in range(6)]
            results, report = backend.map(
                _fragile, tasks, parallel=True, with_report=True
            )
            assert results == [v * 3 for v in range(6)]
            assert report.pooled
            assert report.respawns == 1
            assert backend.counters["exec.respawns"] == 1
            # The respawned pool keeps serving later maps.
            assert backend.map(_double, range(4), parallel=True) == [
                0, 2, 4, 6,
            ]
        finally:
            backend.shutdown()

    def test_exhausted_respawn_budget_degrades_to_parent(self, tmp_path):
        flag = str(tmp_path / "die-once")
        with open(flag, "w") as fh:
            fh.write("x")
        backend = ExecBackend(max_workers=1)
        backend.max_respawns = 0
        try:
            tasks = [(flag, v) for v in range(4)]
            results, report = backend.map(
                _fragile_where, tasks, parallel=True, with_report=True
            )
            # The first chunk killed the pool (consuming the flag on
            # the way down); with a zero respawn budget every
            # undelivered chunk re-ran in the parent, where the flag is
            # gone — degraded, but exact.
            assert [value for value, _ in results] == [v * 3 for v in range(4)]
            assert report.respawns == 1
            # Every task ran exactly once: in a pool worker, or in the
            # parent and counted as serial.
            delivered = sum(pid != os.getpid() for _, pid in results)
            assert delivered + backend.counters["exec.serial_tasks"] == len(
                tasks
            )
        finally:
            backend.shutdown()


class TestWorkerResolution:
    def test_explicit_wins(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "5")
        assert resolve_workers() == 5
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "junk")
        assert resolve_workers() == max(1, os.cpu_count() or 1)

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "5")
        configure(workers=2)
        assert resolve_workers() == 2

    def test_configure_serial_forces_inprocess(self):
        configure(serial=True)
        backend = ExecBackend(max_workers=4)
        results, report = backend.map(
            _double, range(8), parallel=True, with_report=True
        )
        assert results == [_double(t) for t in range(8)]
        assert not report.pooled
        configure(serial=False)


class TestRegistry:
    def test_backend_for_caches_by_width(self):
        assert backend_for(2) is backend_for(2)
        assert backend_for(2) is not backend_for(3)
        assert backend_for(None) is default_backend()

    def test_counters_snapshot_sums_backends(self):
        backend_for(2).counters["exec.shards"] += 7
        default_backend().counters["exec.shards"] += 2
        assert counters_snapshot()["exec.shards"] >= 9
