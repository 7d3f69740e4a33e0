"""Tests for the replica-batched campaign runner."""

import hashlib

import numpy as np
import pytest

from repro.measurements.batch import (
    BatchCampaignConfig,
    _group_shards,
    _run_shard_group,
    _shard_store_key,
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

#: sha256 of the campaign samples per (controller, outages on, speed
#: m/s, profile) at 40 replicas x 3 distances, 6 s, block_size=50, seed
#: 3 — recorded before the per-epoch fixed costs of the batched link
#: were cut, so any drift in draw order or arithmetic fails here.  They
#: also pin NumPy's Generator streams and ufunc results: re-record them
#: from a known-good commit only when a NumPy upgrade moves those.
SAMPLE_DIGESTS = {
    ("arf", False, 0.0, "airplane"):
        "347b6ce3a351041758fd359a27e0ad2e90d57f78b2702abd0dbed8cbbce9c2e3",
    ("arf", False, 0.0, "quadrocopter"):
        "f2c350ba9926612e264b3c58eec4c6381a21353656d4683e31e8536489ffcb46",
    ("arf", False, 7.0, "airplane"):
        "72afbb94020ebd01de91c5ef45b5e48105fe5cccc1181addaea0cec0fccae3c6",
    ("arf", False, 7.0, "quadrocopter"):
        "bde12aded8e4e9680378169d51861db836391d0a4b64ea50ca7522c9621e582f",
    ("arf", True, 0.0, "airplane"):
        "a12edf416de8c91468ae99de187e52e151212105381914f90a496b465ba8ad6f",
    ("arf", True, 0.0, "quadrocopter"):
        "678990e61eea161539fa6f31bdba203571c2e25ed3a29de5276371b1d3fcc559",
    ("arf", True, 7.0, "airplane"):
        "96657dd8b238ffdc58b79e869277f7537a8583da20e45ed6b32e5381c9e0dbb3",
    ("arf", True, 7.0, "quadrocopter"):
        "8a1abc753f2a0f719e3dd4d43555b3b101df3b49392699ef0ef470c1bb121926",
    ("fixed:3", False, 0.0, "airplane"):
        "c483d71b4583943858cc9045180ec8bd09274bc18212230c994e1cd964442372",
    ("fixed:3", False, 0.0, "quadrocopter"):
        "d0bb98a7e822c5c0524f4020de0891d235562f4bfd02419dc5d7d5fd60ec2b12",
    ("fixed:3", False, 7.0, "airplane"):
        "e97f677336b044da2550ba4a1d09ce6058d2afdd4043c39d15f73c58f46de983",
    ("fixed:3", False, 7.0, "quadrocopter"):
        "6cfc99759e2a54e00631e01964c8049c067943f10a13c5918ddb7526b8505481",
    ("fixed:3", True, 0.0, "airplane"):
        "6d198c19dab6c40eb7146003b52f49fca752e68e8479120d6d7b82bef424ce78",
    ("fixed:3", True, 0.0, "quadrocopter"):
        "9c597368f78c16f17df9551bf245a65fff8cd08325b73723bd9e3188634377cd",
    ("fixed:3", True, 7.0, "airplane"):
        "3a16150d30e88a7dc74d1d6ac3afd01b6288ed67baa82f7e224311a6014e3d99",
    ("fixed:3", True, 7.0, "quadrocopter"):
        "de5279bd9815a79d5b716c50f6a2582c5b449cccb79d4ad0676b19a479b70d06",
    ("oracle", False, 0.0, "airplane"):
        "719460d6e1d214dfd197f26a9a04a3a06637469252ee9bfa2a33f7acaffbd954",
    ("oracle", False, 0.0, "quadrocopter"):
        "b65410acd6e88b1d94a1458fbb5cd80c7b4c6b64ff06b34aa37a423cccdc2913",
    ("oracle", False, 7.0, "airplane"):
        "907e969991f6127f511219b8b713e703d8c22a4d2e189298b454e6aa0551952c",
    ("oracle", False, 7.0, "quadrocopter"):
        "765a71bd1406186489db81f499656994672dcf11cc910f5fc1b6146afc3931e8",
    ("oracle", True, 0.0, "airplane"):
        "1e1c47d7d720a1b954e851ea5b34967c2ddb949d60025922fa8f654f3af8c789",
    ("oracle", True, 0.0, "quadrocopter"):
        "baf2ab28af31bb8ed3de61c3d79738532fb8cb5218fb1db67d02a0fbd47fe763",
    ("oracle", True, 7.0, "airplane"):
        "77eed14ae4ddffecfd863096b55aae7d93e37bdfc6af080da60f0951ad350ad1",
    ("oracle", True, 7.0, "quadrocopter"):
        "d472f3a762c8a29746f0d4fff59a7a4df11ecbcd992430a0e9f8e21025947147",
}


def samples_digest(result) -> str:
    """sha256 over the float64 bytes of every (distance, readings) pair."""
    h = hashlib.sha256()
    for key in sorted(result.samples):
        h.update(np.float64(key).tobytes())
        h.update(np.asarray(result.samples[key], dtype=np.float64).tobytes())
    return h.hexdigest()


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


class TestBitIdentity:
    """Campaign samples and memo counters are pinned, not just medians."""

    @pytest.mark.parametrize(
        "controller,outages,speed,profile",
        sorted(SAMPLE_DIGESTS),
        ids=lambda v: str(v),
    )
    def test_samples_digest_pinned(self, controller, outages, speed, profile):
        config = BatchCampaignConfig(
            profile=profile,
            controller=controller,
            n_replicas=40,
            duration_s=6.0,
            block_size=50,
            seed=3,
            relative_speed_mps=speed,
            outage_rate_per_s=0.05 if outages else 0.0,
            outage_mean_duration_s=1.0 if outages else 0.0,
        )
        result = run_campaign(config, parallel=False, cache=False)
        assert samples_digest(result) == SAMPLE_DIGESTS[
            (controller, outages, speed, profile)
        ]

    def test_mean_memo_counters_pinned(self):
        # Each of the 3 shards misses once, then hits on its other 199
        # epochs.
        obs = ObsContext.enabled(deterministic=True)
        run_campaign(SMALL, parallel=False, obs=obs, cache=False)
        counters = obs.metrics.to_dict()["counters"]
        assert counters["channel.mean_cache_hits"] == 597
        assert counters["channel.mean_cache_misses"] == 3


def _grouping_config(faults: bool) -> BatchCampaignConfig:
    """5 shards (5, 5, 5, 5, 4 replicas) that straddle distances."""
    return BatchCampaignConfig(
        profile="quadrocopter",
        controller="arf",
        distances_m=(60.0, 140.0, 220.0),
        n_replicas=8,
        duration_s=3.0,
        seed=21,
        block_size=5,
        relative_speed_mps=4.0,
        outage_rate_per_s=0.3 if faults else 0.0,
        outage_mean_duration_s=0.6 if faults else 0.0,
    )


#: :func:`_grouping_config`'s output as recorded from the runner that
#: stepped each shard as a batch of its own, before shards were
#: stacked: sample digest, merged counters and the per-shard outage
#: counts (faults on).
GROUPING_PINS = {
    False: (
        "d63373057e5b93283004f269fab2036c82bdfd38dd5cf685be9f0c75b8e8b1ad",
        {
            "campaign.epochs": 3600,
            "campaign.replicas": 24,
            "campaign.samples": 72,
            "channel.mean_cache_hits": 745,
            "channel.mean_cache_misses": 5,
        },
    ),
    True: (
        "153304305f7c441e9c0a0ce50d478fca256a35e0c7b06f616a8f783ba28a68e7",
        {
            "campaign.epochs": 3600,
            "campaign.replicas": 24,
            "campaign.samples": 72,
            "channel.mean_cache_hits": 745,
            "channel.mean_cache_misses": 5,
            "faults.outage_replica_epochs": 404,
        },
    ),
}
SHARD_OUTAGE_EPOCHS = [74, 14, 103, 116, 97]


class TestGroupingInvariance:
    """A pool task steps a contiguous group of shards as one batched
    link; each shard keeps its own streams, so no layout of groups
    changes a sample, a counter or a store entry."""

    @pytest.mark.parametrize("faults", [False, True])
    def test_group_outputs_equal_solo_shards(self, faults):
        config = _grouping_config(faults)
        shards = config.shards()

        def run(group):
            return [
                ({d: r.tolist() for d, r in arrays.items()}, obs, meta)
                for arrays, obs, meta in _run_shard_group(config, group)
            ]

        solo = [run([shard])[0] for shard in shards]
        for n_groups in (1, 2, 3, len(shards)):
            groups = _group_shards(shards, n_groups)
            assert len(groups) == n_groups
            assert [s for group in groups for s in group] == shards
            assert [out for group in groups for out in run(group)] == solo
        if faults:
            assert [
                meta["counters"]["faults.outage_replica_epochs"]
                for _, _, meta in solo
            ] == SHARD_OUTAGE_EPOCHS

    def test_groups_balance_replicas(self):
        shards = [(i, (1.0,) * size) for i, size in enumerate([5, 5, 5, 5, 4])]
        sizes = [
            [len(d) for _, d in group] for group in _group_shards(shards, 2)
        ]
        assert sizes == [[5, 5], [5, 5, 4]]
        assert _group_shards(shards, 9) == [[shard] for shard in shards]
        assert _group_shards([], 4) == []

    @pytest.mark.parametrize("faults", [False, True])
    def test_layouts_serial_pooled_warm(self, faults, tmp_path, monkeypatch):
        from repro.exec import ExecBackend
        from repro.store import ResultStore

        config = _grouping_config(faults)
        shards = config.shards()
        digest, counters = GROUPING_PINS[faults]

        def run(store, parallel):
            obs = ObsContext.enabled(deterministic=True)
            result = run_campaign(
                config, parallel=parallel, max_workers=2, obs=obs, cache=store
            )
            entries = {
                path.name: path.read_bytes()
                for path in sorted((store.root / "objects").rglob("*.json"))
            }
            return samples_digest(result), obs.metrics.to_dict(), entries

        seen = {}
        for n_groups in (1, 2, 3, len(shards)):
            monkeypatch.setattr(
                ExecBackend, "lanes", lambda self, parallel=None: n_groups
            )
            for parallel in (False, True):
                root = tmp_path / f"{n_groups}-{parallel}"
                cold = run(ResultStore(root), parallel)
                # Warm the store partially: shards 1 and 3 must re-run.
                store = ResultStore(root)
                for shard, distances in (shards[1], shards[3]):
                    store._drop(_shard_store_key(config, shard, distances))
                warm = run(store, parallel)
                for state, out in (("cold", cold), ("warm", warm)):
                    assert out[0] == digest
                    assert {
                        k: v
                        for k, v in out[1]["counters"].items()
                        if not k.startswith("store.")
                    } == counters
                    seen.setdefault(state, out)
                    assert out == seen[state], (n_groups, parallel, state)
        assert seen["warm"][2] == seen["cold"][2]
        assert seen["warm"][1]["counters"]["store.hits"] == 3
        assert seen["warm"][1]["counters"]["store.points.cold"] == 10
