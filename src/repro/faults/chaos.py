"""The chaos runner: one solved scenario driven through a fault plan.

:func:`run_chaos` is the end-to-end exercise the fault subsystem exists
for.  It solves the paper's Eq. 2 for a baseline scenario, then replays
the resulting plan — ship silently to ``dopt``, then transmit — on the
epoch-based link engine inside the discrete-event kernel, while a
:class:`~repro.faults.injector.FaultInjector` fires the plan's faults:

* link outages silence the link (the transfer backs off exponentially
  and checkpoints when its idle timeout expires);
* a node loss checkpoints the partially shipped batch and re-solves
  ``dopt`` for the remaining data via
  :func:`~repro.core.strategies.replan_after_interruption`;
* GPS degradation and battery brownouts hit their attached models.

Everything is deterministic: the same ``(seed, FaultPlan)`` pair yields
a byte-identical :class:`ChaosResult` (no wall-clock anywhere in the
result), and an empty plan reproduces the plain
:class:`~repro.net.udp.UdpTransfer` pipeline bit for bit — both pinned
by the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..airframe.battery import Battery
from ..channel.channel import AerialChannel, airplane_profile, quadrocopter_profile
from ..core.scenario import airplane_scenario, quadrocopter_scenario
from ..core.strategies import replan_after_interruption
from ..mission.ferry import TransferCheckpoint
from ..net.link import WirelessLink
from ..net.packets import ImageBatch
from ..net.retry import ExponentialBackoff, RetryPolicy
from ..obs import ObsContext, RunManifest
from ..phy.rate_control import scalar_controller
from ..sim.kernel import Simulator
from ..sim.random import RandomStreams
from .injector import FaultInjector
from .outage import OutageSchedule
from .plan import FaultPlan

__all__ = ["ChaosResult", "chaos_manifest", "run_chaos"]

_PROFILES = {
    "airplane": airplane_profile,
    "quadrocopter": quadrocopter_profile,
}

_SCENARIOS = {
    "airplane": airplane_scenario,
    "quadrocopter": quadrocopter_scenario,
}


@dataclass(frozen=True)
class ChaosResult:
    """Deterministic outcome of one chaos run (JSON-ready, replayable)."""

    scenario: str
    plan_name: str
    seed: int
    completed: bool
    finish_s: float
    delivered_bytes: int
    total_bytes: int
    dopt_m: float
    resumes: int
    blackout_retries: int
    blackout_wait_s: float
    checkpoints: Tuple[TransferCheckpoint, ...] = field(default_factory=tuple)
    replans: Tuple[Dict[str, object], ...] = field(default_factory=tuple)
    #: ``(time_s, kind)`` log of faults that actually fired.
    faults_fired: Tuple[Tuple[float, str], ...] = field(default_factory=tuple)
    #: ``faults.<kind>`` counts of the faults that fired.
    counters: Dict[str, int] = field(default_factory=dict)
    battery_fraction: float = 1.0
    deadline_s: Optional[float] = None

    @property
    def delivered_fraction(self) -> float:
        """Fraction of ``Mdata`` that made it."""
        if self.total_bytes <= 0:
            return 0.0
        return self.delivered_bytes / self.total_bytes

    def to_dict(self) -> Dict[str, object]:
        """JSON document; identical across replays of the same inputs."""
        return {
            "scenario": self.scenario,
            "plan": self.plan_name,
            "seed": self.seed,
            "completed": self.completed,
            "finish_s": self.finish_s,
            "deadline_s": self.deadline_s,
            "delivered_bytes": self.delivered_bytes,
            "total_bytes": self.total_bytes,
            "delivered_fraction": self.delivered_fraction,
            "dopt_m": self.dopt_m,
            "resumes": self.resumes,
            "blackout_retries": self.blackout_retries,
            "blackout_wait_s": self.blackout_wait_s,
            "checkpoints": [c.to_dict() for c in self.checkpoints],
            "replans": list(self.replans),
            "faults_fired": [
                {"time_s": t, "kind": kind} for t, kind in self.faults_fired
            ],
            "counters": dict(sorted(self.counters.items())),
            "battery_fraction": self.battery_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ChaosResult":
        """Inverse of :meth:`to_dict` — ``from_dict(r.to_dict()) == r``.

        Used by the persistent result store to rehydrate a cached chaos
        run; ``delivered_fraction`` is derived and therefore ignored.
        """
        deadline = payload.get("deadline_s")
        return cls(
            scenario=str(payload["scenario"]),
            plan_name=str(payload["plan"]),
            seed=int(payload["seed"]),
            completed=bool(payload["completed"]),
            finish_s=float(payload["finish_s"]),
            delivered_bytes=int(payload["delivered_bytes"]),
            total_bytes=int(payload["total_bytes"]),
            dopt_m=float(payload["dopt_m"]),
            resumes=int(payload["resumes"]),
            blackout_retries=int(payload["blackout_retries"]),
            blackout_wait_s=float(payload["blackout_wait_s"]),
            checkpoints=tuple(
                TransferCheckpoint.from_dict(c)
                for c in payload.get("checkpoints", [])
            ),
            replans=tuple(
                dict(r) for r in payload.get("replans", [])
            ),
            faults_fired=tuple(
                (float(f["time_s"]), str(f["kind"]))
                for f in payload.get("faults_fired", [])
            ),
            counters={
                str(k): int(v)
                for k, v in dict(payload.get("counters", {})).items()
            },
            battery_fraction=float(payload.get("battery_fraction", 1.0)),
            deadline_s=None if deadline is None else float(deadline),
        )


def run_chaos(
    plan: FaultPlan,
    scenario_name: str = "quadrocopter",
    seed: int = 1,
    deadline_s: Optional[float] = None,
    epoch_s: float = 0.02,
    controller: str = "arf",
    retry: RetryPolicy = RetryPolicy(),
    idle_timeout_s: float = 2.0,
    max_resumes: int = 8,
    obs: Optional[ObsContext] = None,
) -> ChaosResult:
    """Execute one solved mission under a fault plan; fully deterministic.

    The mission follows the paper's optimal policy: from contact at
    ``d0`` the UAV ships silently towards the solved ``dopt`` while the
    transfer engine runs (delivery is negligible until close anyway,
    which is the paper's whole point), transmitting until ``Mdata`` is
    delivered, the deadline passes, or the resume budget is exhausted.

    ``obs`` (use a *deterministic* context — the replay byte-identity
    guarantee forbids wall clocks here) records spans, fault/retry/
    checkpoint events and ``chaos.*`` metrics.
    """
    if scenario_name not in _PROFILES:
        raise ValueError(
            f"unknown scenario {scenario_name!r}; choose from "
            f"{sorted(_PROFILES)}"
        )
    scn = _SCENARIOS[scenario_name]()
    decision = scn.solve()
    dopt = decision.distance_m
    speed = scn.cruise_speed_mps
    total_bytes = int(round(scn.data_bits / 8))
    events = obs.events if obs is not None else None

    streams = RandomStreams(seed=seed)
    sim = Simulator(obs=obs)
    channel = AerialChannel(_PROFILES[scenario_name](), streams)
    link = WirelessLink(
        channel,
        scalar_controller(controller),
        streams=streams,
        epoch_s=epoch_s,
        outage=OutageSchedule.from_plan(plan),
    )
    batch = ImageBatch(batch_id=0, total_bytes=total_bytes)
    battery = Battery(scn.platform)

    injector = FaultInjector(sim, plan, streams=streams, events=events)
    injector.attach_battery(battery)

    # Mutable geometry: ship from d_start (at t_start) towards floor_m at
    # cruise speed; a node-loss replan rebases all three.
    geometry = {"t_start": 0.0, "d_start": scn.contact_distance_m,
                "floor_m": dopt}

    def distance_fn(t_s: float) -> float:
        return max(
            geometry["floor_m"],
            geometry["d_start"] - speed * (t_s - geometry["t_start"]),
        )

    node_loss_pending: List[object] = []
    injector.on_node_loss(node_loss_pending.append)
    injector.arm()

    checkpoints: List[TransferCheckpoint] = []
    replans: List[Dict[str, object]] = []
    state = {
        "finish_s": 0.0,
        "completed": False,
        "resumes": 0,
        "blackout_retries": 0,
        "blackout_wait_s": 0.0,
    }

    def transfer_process():
        # Local clock mirrors UdpTransfer.run exactly (same float
        # accumulation order), so an empty plan is bit-identical to the
        # plain pipeline.
        now = 0.0
        backoff = ExponentialBackoff(retry)
        last_progress_s = now
        while not batch.complete:
            if deadline_s is not None and now >= deadline_s:
                state["finish_s"] = deadline_s
                return
            if node_loss_pending:
                node_loss_pending.pop(0)
                d_now = distance_fn(now)
                checkpoints.append(
                    TransferCheckpoint(
                        batch_id=batch.batch_id,
                        total_bytes=batch.total_bytes,
                        delivered_bytes=batch.delivered_bytes,
                        time_s=now,
                        reason="node_loss",
                    )
                )
                if events is not None:
                    events.emit(
                        "transfer.checkpoint",
                        now,
                        reason="node_loss",
                        delivered_bytes=batch.delivered_bytes,
                    )
                if batch.remaining_bytes > 0:
                    degraded = replan_after_interruption(
                        scn,
                        remaining_data_bits=batch.remaining_bytes * 8,
                        distance_now_m=d_now,
                        elapsed_s=now,
                        deadline_s=deadline_s,
                    )
                    replans.append(degraded.to_dict())
                    if events is not None:
                        events.emit(
                            "decision.eq2",
                            now,
                            distance_m=degraded.dopt_m,
                            replan=True,
                        )
                    geometry["t_start"] = now
                    geometry["d_start"] = max(d_now, scn.min_distance_m)
                    geometry["floor_m"] = degraded.dopt_m
                backoff.reset()
                last_progress_s = now
            if now - last_progress_s >= idle_timeout_s:
                checkpoints.append(
                    TransferCheckpoint(
                        batch_id=batch.batch_id,
                        total_bytes=batch.total_bytes,
                        delivered_bytes=batch.delivered_bytes,
                        time_s=now,
                        reason="stalled",
                    )
                )
                if events is not None:
                    events.emit(
                        "transfer.checkpoint",
                        now,
                        reason="stalled",
                        delivered_bytes=batch.delivered_bytes,
                    )
                if state["resumes"] >= max_resumes:
                    state["finish_s"] = now
                    return
                state["resumes"] += 1
                backoff.reset()
                last_progress_s = now
            if link.is_blacked_out(now):
                delay = backoff.next_delay_s()
                state["blackout_retries"] += 1
                state["blackout_wait_s"] += delay
                if events is not None:
                    events.emit("retry.backoff", now, delay_s=delay)
                now += delay
                yield delay
                continue
            step = link.step(
                now,
                distance_m=distance_fn(now),
                backlog_bytes=batch.remaining_bytes,
            )
            batch.deliver(step.bytes_delivered)
            now += epoch_s
            if step.bytes_delivered > 0:
                last_progress_s = now
                backoff.reset()
            yield epoch_s
        state["finish_s"] = now
        state["completed"] = True

    sim.spawn(transfer_process())
    sim.run()

    if obs is not None and obs.metrics is not None:
        metrics = obs.metrics
        metrics.counter("chaos.resumes").inc(state["resumes"])
        metrics.counter("chaos.blackout_retries").inc(
            state["blackout_retries"]
        )
        metrics.counter("chaos.checkpoints").inc(len(checkpoints))
        metrics.counter("chaos.replans").inc(len(replans))
        metrics.gauge("chaos.delivered_fraction").set(
            batch.delivered_bytes / total_bytes if total_bytes else 0.0
        )
        for _, kind in injector.fired:
            metrics.counter(f"faults.{kind}").inc()

    return ChaosResult(
        scenario=scenario_name,
        plan_name=plan.name,
        seed=seed,
        completed=state["completed"],
        finish_s=state["finish_s"],
        delivered_bytes=batch.delivered_bytes,
        total_bytes=batch.total_bytes,
        dopt_m=dopt,
        resumes=state["resumes"],
        blackout_retries=state["blackout_retries"],
        blackout_wait_s=state["blackout_wait_s"],
        checkpoints=tuple(checkpoints),
        replans=tuple(replans),
        faults_fired=tuple(injector.fired),
        counters=dict(
            Counter(f"faults.{kind}" for _, kind in injector.fired)
        ),
        battery_fraction=battery.fraction,
        deadline_s=deadline_s,
    )


def chaos_manifest(
    result: ChaosResult,
    plan: FaultPlan,
    obs: Optional[ObsContext] = None,
    git_rev: Optional[str] = "auto",
) -> RunManifest:
    """The one manifest builder for chaos runs.

    Both ``repro chaos --json`` and :func:`repro.api.chaos` serialise
    through this function, so the CLI's stdout and the library's
    :class:`~repro.obs.manifest.RunManifest` are byte-identical for the
    same inputs — and replays of a deterministic run still compare
    equal with ``cmp``.
    """
    return RunManifest.build(
        kind="chaos",
        config={
            "scenario": result.scenario,
            "plan": plan.name,
            "faults": len(plan.faults),
            "deadline_s": result.deadline_s,
        },
        seeds={"chaos": result.seed},
        outputs=result.to_dict(),
        obs=obs,
        git_rev=git_rev,
    )
