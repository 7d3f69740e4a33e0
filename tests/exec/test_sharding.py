"""The adaptive shard planner: chunk sizing, cost model, neutrality."""

from repro.exec import ShardPlanner
from repro.exec.backend import _run_chunk


class TestChunkSizing:
    def test_targets_chunks_per_worker_band(self):
        planner = ShardPlanner()
        # Expensive items: the duration floor never binds, so the chunk
        # count lands in the configured per-worker band.
        planner.observe("fat", 10, 10.0)
        slices = planner.chunk_slices("fat", 1000, workers=4)
        per_worker = len(slices) / 4
        assert 8 <= per_worker <= 16

    def test_tiny_items_are_floored_into_bigger_chunks(self):
        planner = ShardPlanner()
        planner.observe("tiny", 1000, 0.001)  # 1 us/item
        size = planner.chunk_size("tiny", 100_000, workers=4)
        # min_chunk_seconds / cost = 0.005 / 1e-6 = 5000 items at least.
        assert size >= 5000

    def test_never_fewer_chunks_than_items_allow(self):
        planner = ShardPlanner()
        planner.observe("fat", 1, 100.0)
        # The floor would ask for one giant chunk; the cap keeps at
        # least one chunk per worker so the pool is not serialised.
        slices = planner.chunk_slices("fat", 8, workers=4)
        assert len(slices) >= 4

    def test_slices_cover_range_contiguously(self):
        planner = ShardPlanner()
        slices = planner.chunk_slices("default", 37, workers=3)
        flat = [i for r in slices for i in r]
        assert flat == list(range(37))

    def test_zero_items(self):
        assert ShardPlanner().chunk_slices("default", 0, workers=4) == []


class TestCostModel:
    def test_ewma_tracks_observations(self):
        planner = ShardPlanner()
        planner.observe("f", 10, 1.0)  # 0.1 s/item
        assert planner.item_seconds("f") == 0.1
        planner.observe("f", 10, 3.0)  # 0.3 s/item, alpha=0.5
        assert abs(planner.item_seconds("f") - 0.2) < 1e-12

    def test_unknown_family_uses_default(self):
        planner = ShardPlanner()
        assert planner.item_seconds("never-seen") == (
            ShardPlanner.default_item_seconds
        )

    def test_telemetry_seeding(self):
        """A pool chunk reports its own wall-clock, which seeds the model."""
        seconds, outs = _run_chunk(abs, [-1, 2, -3, 4])
        assert outs == [1, 2, 3, 4]
        assert seconds >= 0.0
        planner = ShardPlanner()
        planner.observe("f", 4, seconds)
        assert planner.item_seconds("f") == seconds / 4

    def test_bad_observations_ignored(self):
        planner = ShardPlanner()
        planner.observe("f", 0, 1.0)
        planner.observe("f", -3, 1.0)
        planner.observe("f", 5, -1.0)
        assert "f" not in planner._item_seconds
