"""Byte pins for the event-driven R=1 missions on the scalar link.

The plans are built the way the ``mission-r1`` benchmark workload
builds them: ``api.chaos`` runs with an outage (and a node loss that
forces an Eq. 2 re-solve) on both airframes, and relay transfers over
a quadrocopter-airplane chain with an outage.  The digests were
recorded before the scalar link's per-step fixed costs were cut, so a
chaos manifest or relay ledger that moves by one byte fails here.
They also pin NumPy's Generator streams and ufunc results: re-record
them from a known-good commit only when a NumPy upgrade moves those.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import api
from repro.relay import RelayChain
from repro.relay.transfer import run_relay_transfer

#: (plan name, airframe, outage (start, duration) s, node-loss time s
#: or None, seed) -> sha256 of ``manifest.to_json()`` with ``git_rev``
#: cleared (it names the checkout, not the run).
CHAOS_PINS = {
    ("outage", "airplane", (6.5, 3.0), None, 1_234_567):
        "e7fd80d23fd710554dc53a33eca395af73be186f114928e3fb9005351b67467f",
    ("node-loss", "quadrocopter", (12.0, 2.5), 8.0, 987_654_321):
        "0fc84dfd512351a9da904297045b96597f197968d958b4755b21fa1e981cdb42",
    ("node-loss", "airplane", (3.0, 4.5), 20.0, 424_242):
        "ea63eb585fc1ce40853333fea70886c49f9d52625f2d4df5052717a90a8bab41",
}

#: (plan name, outage (start, duration) s, seed) -> sha256 of the
#: relay transfer's ``to_dict()`` JSON.
RELAY_PINS = {
    ("relay-early", (4.0, 2.0), 77_777):
        "a7567d9a8f1fb71a55cc4a66bcaf825f77faeea625dd22c22e97fb0172e286e9",
    ("relay-late", (41.0, 4.0), 2_024):
        "a4980d946a82faad1bed04138213b057cb67302c680adbb41e12d065f7eb4622",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(CHAOS_PINS))
def test_chaos_manifest_pinned(key):
    name, airframe, (start, duration), node_loss_s, seed = key
    plan = api.FaultPlan(name=name, seed=seed).with_outage(start, duration)
    if node_loss_s is not None:
        plan = plan.add(api.FaultSpec("node_loss", node_loss_s))
    out = api.chaos(plan, scenario_name=airframe, seed=seed, cache=False)
    assert out.completed and out.delivered_bytes == out.total_bytes
    assert out.blackout_retries > 0
    if node_loss_s is not None:
        assert out.replans
    manifest = dataclasses.replace(out.manifest, git_rev=None)
    assert _sha(manifest.to_json()) == CHAOS_PINS[key]


@pytest.mark.parametrize("key", sorted(RELAY_PINS))
def test_relay_transfer_pinned(key):
    name, (start, duration), seed = key
    chain = RelayChain.of(
        [api.scenario("quadrocopter"), api.scenario("airplane")],
        handoff_s=5.0, name="quadrocopter-airplane",
    )
    plan = api.FaultPlan(name=name, seed=seed).with_outage(start, duration)
    out = run_relay_transfer(chain, plan, seed=seed)
    assert out.completed and out.byte_ledger_consistent()
    assert out.delivered_bytes == out.total_bytes
    assert sum(hop.blackout_retries for hop in out.hops) > 0
    assert _sha(json.dumps(out.to_dict(), sort_keys=True)) == RELAY_PINS[key]
