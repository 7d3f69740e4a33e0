"""Campaign fault streams: worker-count-invariant chaos.

The regression this pins: fault plans are drawn from per-replica
substreams keyed to the *global* replica index, so sharding the
campaign across any number of pool workers (or none) yields
bit-identical samples.  A naive implementation that drew fault plans
from shard-local streams would change results with ``max_workers``.
"""

import pytest

from repro.faults import BatchOutageSchedule
from repro.measurements.batch import (
    BatchCampaignConfig,
    _group_outages,
    _replica_fault_plan,
    run_campaign,
)
from repro.obs import ObsContext

FAULTY = BatchCampaignConfig(
    distances_m=(80.0, 240.0),
    n_replicas=6,
    duration_s=4.0,
    seed=9,
    block_size=5,
    outage_rate_per_s=0.4,
    outage_mean_duration_s=0.5,
)


class TestConfigValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BatchCampaignConfig(outage_rate_per_s=-0.1)

    def test_rate_without_duration_rejected(self):
        with pytest.raises(ValueError, match="outage_mean_duration_s"):
            BatchCampaignConfig(outage_rate_per_s=0.1)

    def test_faults_enabled_flag(self):
        assert FAULTY.faults_enabled
        assert not BatchCampaignConfig().faults_enabled


class TestReplicaFaultStreams:
    def test_plans_keyed_to_global_replica_index(self):
        """Same global index -> same plan, regardless of who asks."""
        a = _replica_fault_plan(FAULTY, 7)
        b = _replica_fault_plan(FAULTY, 7)
        assert a.to_dict() == b.to_dict()
        assert _replica_fault_plan(FAULTY, 7) != _replica_fault_plan(FAULTY, 8)

    def test_plans_bounded_by_duration(self):
        for g in range(10):
            for start, end in _replica_fault_plan(FAULTY, g).outage_windows_s():
                assert 0.0 <= start < FAULTY.duration_s

    def test_shard_outages_align_with_global_plans(self):
        # Shards 1 and 2 (block_size 5, 12 cases) cover global replicas
        # 5..9 and 10..11; a group of them lists those end to end.
        for group, first in ((FAULTY.shards()[1:2], 5), (FAULTY.shards()[1:], 5)):
            schedule = _group_outages(FAULTY, group)
            assert isinstance(schedule, BatchOutageSchedule)
            n = sum(len(distances) for _, distances in group)
            assert schedule.n_replicas == n
            for offset in range(n):
                expected = _replica_fault_plan(FAULTY, first + offset)
                got = schedule.windows_s[offset]
                want = BatchOutageSchedule(
                    [expected.outage_windows_s()]
                ).windows_s[0]
                assert got == want

    def test_fault_free_config_has_no_schedule(self):
        config = BatchCampaignConfig()
        assert _group_outages(config, config.shards()[:1]) is None


class TestWorkerCountInvariance:
    def test_bit_identical_across_worker_counts(self):
        sequential = run_campaign(FAULTY, parallel=False)
        two = run_campaign(FAULTY, parallel=True, max_workers=2)
        four = run_campaign(FAULTY, parallel=True, max_workers=4)
        assert two.keys() == sequential.keys() == four.keys()
        for key in sequential.keys():
            assert two.samples[key] == sequential.samples[key]
            assert four.samples[key] == sequential.samples[key]

    def test_deterministic_across_runs(self):
        a = run_campaign(FAULTY, parallel=False)
        b = run_campaign(FAULTY, parallel=False)
        for key in a.keys():
            assert a.samples[key] == b.samples[key]

    def test_outages_cost_throughput(self):
        clean = run_campaign(
            BatchCampaignConfig(
                distances_m=(80.0,), n_replicas=8, duration_s=4.0, seed=9
            ),
            parallel=False,
        ).medians_mbps()
        stormy = run_campaign(
            BatchCampaignConfig(
                distances_m=(80.0,),
                n_replicas=8,
                duration_s=4.0,
                seed=9,
                outage_rate_per_s=0.5,
                outage_mean_duration_s=1.0,
            ),
            parallel=False,
        ).medians_mbps()
        assert stormy[80.0] < clean[80.0]

    def test_outage_epochs_counted(self):
        obs = ObsContext.enabled(deterministic=True)
        run_campaign(FAULTY, parallel=False, obs=obs)
        assert obs.metrics.value("faults.outage_replica_epochs") > 0
