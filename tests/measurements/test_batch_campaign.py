"""Tests for the replica-batched campaign runner."""

import numpy as np
import pytest

from repro.measurements.batch import (
    BatchCampaignConfig,
    run_campaign,
    run_scalar_reference,
)
from repro.obs import ObsContext

SMALL = BatchCampaignConfig(
    distances_m=(80.0, 240.0),
    n_replicas=6,
    duration_s=4.0,
    seed=9,
    block_size=5,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchCampaignConfig(n_replicas=0)
        with pytest.raises(ValueError):
            BatchCampaignConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            BatchCampaignConfig(block_size=0)
        with pytest.raises(ValueError):
            BatchCampaignConfig(distances_m=())
        with pytest.raises(ValueError):
            BatchCampaignConfig(profile="submarine")

    def test_shards_cover_all_cases(self):
        shards = SMALL.shards()
        # 2 distances x 6 replicas = 12 cases in blocks of <= 5.
        assert [len(d) for _, d in shards] == [5, 5, 2]
        assert [s for s, _ in shards] == [0, 1, 2]
        flat = [d for _, block in shards for d in block]
        assert flat == [80.0] * 6 + [240.0] * 6

    def test_shards_single_block(self):
        config = BatchCampaignConfig(
            distances_m=(100.0,), n_replicas=4, block_size=64
        )
        shards = config.shards()
        assert shards == [(0, (100.0, 100.0, 100.0, 100.0))]


class TestRunCampaign:
    def test_sample_counts_and_keys(self):
        result = run_campaign(SMALL, parallel=False)
        assert result.keys() == [80.0, 240.0]
        # Each replica reports once per second for duration_s seconds.
        expected = SMALL.n_replicas * int(SMALL.duration_s)
        assert all(len(result.samples[k]) == expected for k in result.keys())
        assert result.n_replicas == SMALL.n_replicas
        assert result.wall_s > 0.0

    def test_deterministic_across_runs(self):
        a = run_campaign(SMALL, parallel=False)
        b = run_campaign(SMALL, parallel=False)
        for key in a.keys():
            assert a.samples[key] == b.samples[key]

    def test_parallel_matches_sequential(self):
        sequential = run_campaign(SMALL, parallel=False)
        parallel = run_campaign(SMALL, parallel=True, max_workers=2)
        assert parallel.keys() == sequential.keys()
        for key in sequential.keys():
            assert parallel.samples[key] == sequential.samples[key]

    def test_throughput_falls_with_distance(self):
        medians = run_campaign(SMALL, parallel=False).medians_mbps()
        assert medians[80.0] > medians[240.0] > 0.0

    def test_telemetry_merged_across_shards(self):
        obs = ObsContext.enabled(deterministic=True)
        run_campaign(SMALL, parallel=False, obs=obs)
        assert obs.tracer.summary()["campaign.shard"]["count"] == 3
        counters = obs.metrics.to_dict()["counters"]
        epochs_per_shard = int(round(SMALL.duration_s / SMALL.epoch_s))
        assert counters["campaign.epochs"] == 12 * epochs_per_shard
        assert counters["channel.mean_cache_misses"] >= 1
        assert (
            counters["channel.mean_cache_hits"]
            > counters["channel.mean_cache_misses"]
        )
        # Fault-free campaigns report no outage counter at all.
        assert "faults.outage_replica_epochs" not in counters

    def test_stats_summary(self):
        result = run_campaign(SMALL, parallel=False)
        stats = result.stats(80.0)
        assert stats.minimum <= stats.median <= stats.maximum


class TestScalarReference:
    def test_agrees_with_batched_medians(self):
        config = BatchCampaignConfig(
            distances_m=(80.0, 240.0),
            n_replicas=16,
            duration_s=10.0,
            seed=3,
        )
        batched = run_campaign(config, parallel=False).medians_mbps()
        scalar = run_scalar_reference(config).medians_mbps()
        for key in batched:
            assert scalar[key] == pytest.approx(batched[key], rel=0.10)

    def test_replica_override_shrinks_workload(self):
        obs = ObsContext.enabled(deterministic=True)
        result = run_scalar_reference(SMALL, n_replicas=2, obs=obs)
        assert result.n_replicas == 2
        assert all(
            len(result.samples[k]) == 2 * int(SMALL.duration_s)
            for k in result.keys()
        )
        epochs_per_replica = int(round(SMALL.duration_s / SMALL.epoch_s))
        assert obs.metrics.value("campaign.epochs") == (
            2 * 2 * epochs_per_replica
        )
