"""Scheduling neutrality: manifests are byte-identical however work runs.

The backend's headline contract (ISSUE 10): worker count, pooled vs
serial execution, and dispatch chunking are pure scheduling decisions —
campaign, relay-campaign and chaos manifests must come out byte for
byte the same.
"""

from repro.api import FaultPlan, chaos
from repro.measurements.batch import BatchCampaignConfig, run_campaign
from repro.obs import ObsContext, RunManifest
from repro.relay import (
    RelayCampaignConfig,
    relay_campaign_manifest,
    run_relay_campaign,
)
import repro.exec as exec_backend

CAMPAIGN = BatchCampaignConfig(
    profile="airplane",
    distances_m=(80.0, 160.0),
    n_replicas=6,
    duration_s=1.0,
    seed=3,
    block_size=3,
)

RELAY = RelayCampaignConfig(
    mdata_mb=1.0,
    n_replicas=6,
    block_size=2,
    outage_rate_per_s=0.02,
    outage_mean_duration_s=3.0,
    horizon_s=200.0,
)


def _campaign_manifest(parallel, max_workers=None):
    obs = ObsContext.enabled(deterministic=True)
    result = run_campaign(
        CAMPAIGN, parallel=parallel, max_workers=max_workers, obs=obs
    )
    return RunManifest.build(
        kind="campaign",
        config={"profile": CAMPAIGN.profile, "seed": CAMPAIGN.seed},
        outputs={"medians_mbps": result.medians_mbps(),
                 "samples": result.samples},
        obs=obs,
        git_rev=None,
    ).to_json().encode()


def _relay_manifest(parallel, max_workers=None):
    obs = ObsContext.enabled(deterministic=True)
    result = run_relay_campaign(
        RELAY, parallel=parallel, max_workers=max_workers, obs=obs
    )
    return relay_campaign_manifest(
        result, RELAY, obs=obs, git_rev=None
    ).to_json().encode()


def _chaos_manifest():
    plan = FaultPlan(name="exec-invariance", seed=2).with_outage(20.0, 4.0)
    result = chaos(plan, scenario_name="quadrocopter", seed=2)
    return result.manifest.to_json().encode()


class TestCampaignInvariance:
    def test_serial_vs_pooled_byte_identical(self):
        assert _campaign_manifest(False) == _campaign_manifest(True)

    def test_1_vs_4_workers_byte_identical(self):
        one = _campaign_manifest(True, max_workers=1)
        four = _campaign_manifest(True, max_workers=4)
        assert one == four


class TestRelayCampaignInvariance:
    def test_serial_vs_pooled_byte_identical(self):
        assert _relay_manifest(False) == _relay_manifest(True)

    def test_1_vs_4_workers_byte_identical(self):
        one = _relay_manifest(True, max_workers=1)
        four = _relay_manifest(True, max_workers=4)
        assert one == four


class TestChaosInvariance:
    def test_forced_serial_backend_byte_identical(self):
        # Chaos has no pool fan-out of its own, but it runs above the
        # backend-configured world: forcing the global serial switch
        # (the CLI --serial flag) must not move a byte.
        default = _chaos_manifest()
        exec_backend.configure(serial=True)
        forced = _chaos_manifest()
        assert default == forced


class TestCountersStayOutOfManifests:
    def test_exec_counters_never_enter_manifest_sections(self):
        document = _campaign_manifest(True, max_workers=4).decode()
        assert "exec.pool_reuse" not in document
        assert "exec.respawns" not in document
        assert "exec.serial_tasks" not in document
        assert "exec.shards" not in document
