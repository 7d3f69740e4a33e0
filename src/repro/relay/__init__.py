"""Multi-hop relay-chain workload: model, solvers, transfers, campaigns.

The paper's now-or-later decision generalised to chains of ferrying
UAVs (see ``docs/API.md``, "Relay chains"):

* :class:`RelayChain` / :class:`RelayHop` — the static chain model;
* :class:`RelaySolver` — per-hop now-vs-ship decisions via an exact
  Pareto-frontier dynamic program over Eq. 1/2;
* :class:`BatchRelaySolver` — the RL105-registered batch twin,
  bit-identical to the scalar path at R=1;
* :func:`run_relay_transfer` — fault-plan-compatible store-and-forward
  execution with checkpoint/resume at interrupted hops;
* :func:`run_relay_campaign` — replicated outage campaigns with
  worker-count-invariant results.

Only the chain model loads with the package; every other name
resolves on first access (PEP 562 ``__getattr__``), so ``repro relay``
never imports the transfer and campaign link stack.
"""

from .chain import RelayChain, RelayHop

__all__ = [
    "HOP_POLICIES",
    "BatchRelayResult",
    "BatchRelaySolver",
    "HopChoice",
    "RelayCampaignConfig",
    "RelayCampaignResult",
    "RelayChain",
    "RelayDecision",
    "RelayHop",
    "RelayHopReport",
    "RelaySolver",
    "RelayTransferResult",
    "relay_campaign_manifest",
    "relay_manifest",
    "run_relay_campaign",
    "run_relay_transfer",
]


def __getattr__(name: str):
    # Literal relative imports keep each edge in the RL108 import graph.
    if name == "BatchRelaySolver":
        from . import batch as source
    elif name in (
        "RelayCampaignConfig",
        "RelayCampaignResult",
        "relay_campaign_manifest",
        "run_relay_campaign",
    ):
        from . import campaign as source
    elif name in (
        "HOP_POLICIES",
        "BatchRelayResult",
        "HopChoice",
        "RelayDecision",
        "RelaySolver",
        "relay_manifest",
    ):
        from . import solver as source
    elif name in (
        "RelayHopReport",
        "RelayTransferResult",
        "run_relay_transfer",
    ):
        from . import transfer as source
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(source, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
