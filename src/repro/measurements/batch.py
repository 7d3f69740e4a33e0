"""Replica-batched measurement campaigns with process-pool fan-out.

The scalar campaigns (:mod:`repro.measurements.campaign`,
:mod:`repro.experiments.fig6`) estimate per-distance throughput medians
by running many independent *replicas* of an iperf session — a Python
loop over epochs per replica.  :func:`run_campaign` replaces that with
the replica-batched engine: one
:class:`~repro.net.batchlink.BatchWirelessLink` steps a whole group of
replica blocks (shards) per epoch in lockstep NumPy, one group per
worker of the persistent process pool owned by :mod:`repro.exec`
(*processes* because the epoch loop itself is Python).  Each shard
keeps its own random streams inside the group, so results do not
depend on the grouping.

Everything a worker needs travels in a picklable
:class:`BatchCampaignConfig` — profiles and controllers are named by
spec strings, never by object reference.  With ``obs=`` each worker
fills a deterministic :class:`~repro.obs.ObsContext` per shard (a span,
``campaign.*`` counts, the channel memo and injected-outage counters)
and the parent merges them.  A group's per-shard outputs travel home
as plain pickle, each distance's readings one float64 array.

:func:`run_scalar_reference` runs the identical workload on the scalar
engine — the baseline for the speedup and agreement numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..channel.channel import (
    AerialChannel,
    BatchAerialChannel,
    ChannelProfile,
    airplane_profile,
    indoor_profile,
    quadrocopter_profile,
)
from ..exec import backend_for
from ..faults.outage import BatchOutageSchedule
from ..faults.plan import FaultPlan
from ..net.batchlink import BatchWirelessLink
from ..net.iperf import IperfSession
from ..net.link import WirelessLink
from ..obs import ObsContext
from ..perf import wall_clock
from ..phy.rate_control import batch_controller, scalar_controller
from ..sim.monitor import SummaryStats
from ..sim.random import RandomStreams, SegmentedStreams

__all__ = [
    "BatchCampaignConfig",
    "BatchCampaignResult",
    "run_campaign",
    "run_scalar_reference",
    "profile_by_name",
]

_PROFILES = {
    "airplane": airplane_profile,
    "quadrocopter": quadrocopter_profile,
    "indoor": indoor_profile,
}


#: ``(shard index, per-replica distances)``: one determinism unit.
Shard = Tuple[int, Tuple[float, ...]]
#: A shard's ``(samples, obs, meta)``, live or restored from the store.
ShardOutput = Tuple[
    Dict[float, List[float]], Optional[ObsContext], Dict[str, object]
]


def profile_by_name(name: str) -> ChannelProfile:
    """Resolve a picklable profile spec to a :class:`ChannelProfile`."""
    try:
        return _PROFILES[name]()
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}; expected one of {sorted(_PROFILES)}"
        ) from None


@dataclass(frozen=True)
class BatchCampaignConfig:
    """Picklable description of one fixed-distance campaign.

    The workload mirrors the Fig. 6 methodology: for each distance,
    ``n_replicas`` independent iperf sessions of ``duration_s`` seconds
    at saturated load, readings pooled per distance.
    """

    profile: str = "airplane"
    #: Controller spec: ``"arf"``, ``"oracle"`` or ``"fixed:<mcs>"``.
    controller: str = "arf"
    distances_m: Tuple[float, ...] = (80.0, 160.0, 240.0)
    n_replicas: int = 64
    duration_s: float = 40.0
    seed: int = 1
    relative_speed_mps: float = 0.0
    report_interval_s: float = 1.0
    epoch_s: float = 0.02
    #: (distance, replica) cases per shard.  A shard is the unit of
    #: determinism and caching: it owns its random streams (forked on
    #: the shard index) and one result-store entry.  Its replicas may
    #: sit at *different* distances (a per-replica distance array).
    #: Each process-pool task steps a contiguous group of shards as one
    #: :class:`BatchWirelessLink`, one group per worker, so the
    #: per-step NumPy overhead amortises over the whole group; the
    #: grouping never changes a value.
    block_size: int = 192
    #: Poisson arrival rate of injected link outages per replica
    #: (0 = fault-free; the campaign is then byte-identical to pre-fault
    #: behaviour).
    outage_rate_per_s: float = 0.0
    #: Mean duration of each injected outage (exponential).
    outage_mean_duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not self.distances_m:
            raise ValueError("distances_m must not be empty")
        if self.outage_rate_per_s < 0:
            raise ValueError("outage_rate_per_s must be non-negative")
        if self.outage_rate_per_s > 0 and self.outage_mean_duration_s <= 0:
            raise ValueError(
                "outage_mean_duration_s must be positive when outages are on"
            )
        profile_by_name(self.profile)  # validate early, before pickling

    @property
    def faults_enabled(self) -> bool:
        """Whether this campaign injects link outages."""
        return self.outage_rate_per_s > 0

    def shards(self) -> List[Shard]:
        """(shard_index, per-replica distances) task list.

        The flattened (distance, replica) case list is cut into blocks
        of at most ``block_size`` cases.
        """
        cases = [
            float(distance)
            for distance in self.distances_m
            for _replica in range(self.n_replicas)
        ]
        return [
            (shard, tuple(cases[start:start + self.block_size]))
            for shard, start in enumerate(
                range(0, len(cases), self.block_size)
            )
        ]


@dataclass
class BatchCampaignResult:
    """Pooled per-distance readings plus the run's wall-clock."""

    samples: Dict[float, List[float]]
    wall_s: float
    n_replicas: int

    def add_sample(self, key: float, throughput_bps: float) -> None:
        """Record one per-interval throughput reading under ``key``."""
        self.samples.setdefault(key, []).append(float(throughput_bps))

    def keys(self) -> List[float]:
        """Sorted distances with at least one reading."""
        return sorted(self.samples)

    def stats(self, key: float) -> SummaryStats:
        """Boxplot summary for one distance."""
        return SummaryStats.from_samples(self.samples[key])

    def medians_mbps(self) -> Dict[float, float]:
        """Median throughput (Mb/s) per distance."""
        return {
            key: float(np.median(values)) / 1e6
            for key, values in sorted(self.samples.items())
        }


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------

def _shard_streams(config: BatchCampaignConfig, shard: int) -> RandomStreams:
    """Independent named streams for one shard (fork salt = shard+1)."""
    return RandomStreams(config.seed).fork(shard + 1)


def _replica_fault_plan(config: BatchCampaignConfig, g: int) -> FaultPlan:
    """The outage plan of *global* replica ``g`` — pool-layout free.

    The fault stream is keyed to the replica's global index (its
    position in the flattened (distance, replica) case list), never to
    the shard that happens to execute it or to pool completion order.
    Named streams make ``faults.outage`` independent of the shard
    streams (``channel.*``, ``link.delivery``) even where fork salts
    collide, so enabling faults perturbs nothing else — and the same
    config yields bit-identical campaigns for any worker count.
    """
    rng = RandomStreams(config.seed).fork(g + 1).get("faults.outage")
    return FaultPlan.sampled_outages(
        rng,
        horizon_s=config.duration_s,
        rate_per_s=config.outage_rate_per_s,
        mean_duration_s=config.outage_mean_duration_s,
        name=f"replica{g}",
        seed=config.seed,
    )


def _group_outages(
    config: BatchCampaignConfig, group: Sequence[Shard]
) -> Optional[BatchOutageSchedule]:
    """Per-replica outage schedules for a shard group (None = fault-free).

    Each replica's windows come from its global index, so a group's
    schedule is its shards' schedules end to end.
    """
    if not config.faults_enabled:
        return None
    return BatchOutageSchedule(
        [
            _replica_fault_plan(
                config, shard * config.block_size + offset
            ).outage_windows_s()
            for shard, distances in group
            for offset in range(len(distances))
        ]
    )


def _shard_obs(
    shard: int,
    samples: Dict[float, Sequence[float]],
    steps: int,
    n_replicas: int,
    sim_end_s: float,
    counters: Dict[str, int],
) -> ObsContext:
    """The deterministic obs context describing one shard's work.

    Shared by the live worker and the store-restore path in
    :func:`run_campaign`, so a shard replayed from the persistent cache
    contributes the identical span and counters a live shard would —
    merged campaign observability is invariant to cache state.
    ``counters`` (the channel memo and outage counts) carry
    non-``campaign.`` names: the scalar engine has no such counts, and
    the ``campaign.`` namespace is the scalar↔batch parity surface.
    """
    obs = ObsContext.enabled(deterministic=True)
    with obs.tracer.span(
        "campaign.shard", sim_start_s=0.0, shard=shard
    ) as handle:
        handle.end_sim(sim_end_s)
    obs.metrics.counter("campaign.epochs").inc(steps * n_replicas)
    obs.metrics.counter("campaign.samples").inc(
        sum(len(v) for v in samples.values())
    )
    for name, value in counters.items():
        obs.metrics.counter(name).inc(value)
    return obs


def _run_shard_group(
    config: BatchCampaignConfig,
    group: Sequence[Shard],
    collect_obs: bool = False,
) -> List[Tuple[Dict[float, np.ndarray], Optional[ObsContext], dict]]:
    """A group of shards stepped as one batched link.

    The group's replicas (each shard's ``distances_m`` in shard order,
    one entry per replica, distances mixed) share one
    :class:`BatchWirelessLink`, so the per-step fixed cost is paid once
    per group, not per shard.  Each shard still draws from its own
    streams through :class:`~repro.sim.random.SegmentedStreams`, and
    each replica's outages key on its global index, so every shard's
    output is the one it gives as a group of one: grouping never
    shapes results.  Top-level (picklable) so it can cross a process
    boundary; also the sequential path.

    Returns one ``(samples, obs, meta)`` per shard, in group order,
    each distance's readings a float64 array (what a pool task ships;
    the parent turns them into lists).  ``collect_obs`` makes each shard
    fill a *deterministic* obs context
    (span per shard, ``campaign.*`` metrics) shipped back to the
    parent for merging — deterministic so the merged summary is
    invariant to worker count and pool completion order.  The meta
    dict (``steps``, ``sim_end_s``, ``counters``) is what the
    persistent store needs to replay the shard's observability without
    re-running it.
    """
    sizes = [len(distances) for _, distances in group]
    n_replicas = sum(sizes)
    streams = SegmentedStreams(
        [_shard_streams(config, shard) for shard, _ in group], sizes
    )
    channel = BatchAerialChannel(
        profile_by_name(config.profile), n_replicas, streams
    )
    link = BatchWirelessLink(
        channel,
        batch_controller(config.controller, n_replicas),
        streams=streams,
        epoch_s=config.epoch_s,
        outage=_group_outages(config, group),
    )
    distance_arr = np.array(
        [d for _, distances in group for d in distances], dtype=float
    )
    interval = config.report_interval_s
    now = 0.0
    end = config.duration_s
    next_report = interval
    interval_bytes = np.zeros(n_replicas, dtype=np.int64)
    rows: List[np.ndarray] = []
    steps = 0
    while now < end:
        step = link.step(
            now,
            distance_m=distance_arr,
            relative_speed_mps=config.relative_speed_mps,
        )
        interval_bytes += step.bytes_delivered
        now += link.epoch_s
        steps += 1
        if now >= next_report - 1e-12:
            rows.append(interval_bytes * 8.0 / interval)
            interval_bytes = np.zeros(n_replicas, dtype=np.int64)
            next_report += interval
    matrix = np.stack(rows) if rows else None  # (n_intervals, n_replicas)
    outputs = []
    start = 0
    for (shard, distances), size in zip(group, sizes):
        stop = start + size
        samples: Dict[float, np.ndarray] = {}
        if matrix is not None:
            block = matrix[:, start:stop]
            block_distances = distance_arr[start:stop]
            for distance in dict.fromkeys(distances):  # unique, ordered
                samples[distance] = block[:, block_distances == distance].ravel()
        # Distance and speed are fixed for the run, so the mean-SNR memo
        # misses on the first lookup and hits on every later one; a
        # shard alone makes the same lookups, hence the group's counts.
        counters = {
            "channel.mean_cache_hits": channel.mean_cache_hits,
            "channel.mean_cache_misses": channel.mean_cache_misses,
        }
        if config.faults_enabled:
            counters["faults.outage_replica_epochs"] = int(
                link.outage_epochs[start:stop].sum()
            )
        obs = (
            _shard_obs(shard, samples, steps, size, now, counters)
            if collect_obs
            else None
        )
        meta = {"steps": steps, "sim_end_s": now, "counters": counters}
        outputs.append((samples, obs, meta))
        start = stop
    return outputs


def _group_shards(
    shards: Sequence[Shard], n_groups: int
) -> List[List[Shard]]:
    """``shards`` cut into ``n_groups`` contiguous, replica-balanced groups.

    Group ``g`` ends at the shard boundary nearest to ``(g + 1) / n``
    of the replicas, every group keeping at least one shard.
    """
    n = min(len(shards), n_groups)
    if n <= 1:
        return [list(shards)] if shards else []
    cumulative = np.cumsum([len(distances) for _, distances in shards])
    cuts = [0]
    for g in range(1, n):
        nearest = int(np.argmin(np.abs(cumulative - cumulative[-1] * g / n)))
        cuts.append(min(max(nearest + 1, cuts[-1] + 1), len(shards) - n + g))
    cuts.append(len(shards))
    return [list(shards[a:b]) for a, b in zip(cuts, cuts[1:])]


# ----------------------------------------------------------------------
# Persistent-store plumbing
# ----------------------------------------------------------------------

def _shard_store_key(
    config: BatchCampaignConfig, shard: int, distances_m: Tuple[float, ...]
) -> str:
    """The persistent-store key of one shard's output.

    A shard's samples are fully determined by ``(config, shard index,
    distances block)``: its random streams fork on ``shard + 1`` and
    its fault plans key on global replica indices derived from the
    shard index — the shard is therefore the safe caching granularity
    (per-distance entries would not be, because replicas of different
    distances share one batched link).
    """
    import dataclasses

    from ..store import CAMPAIGN_CODE_MODULES, config_key

    return config_key(
        "campaign.shard",
        {
            "config": dataclasses.asdict(config),
            "shard": shard,
            "distances": list(distances_m),
        },
        CAMPAIGN_CODE_MODULES,
    )


def _shard_store_body(
    samples: Dict[float, List[float]], meta: Dict[str, object]
) -> dict:
    return {
        "samples": [[d, readings] for d, readings in samples.items()],
        **meta,
    }


def _restore_shard(
    shard: int,
    distances_m: Tuple[float, ...],
    entry: Optional[Tuple[dict, memoryview]],
    collect_obs: bool,
) -> Optional[ShardOutput]:
    """Rehydrate one shard's worker output from a store entry.

    Returns the same 3-tuple a live worker produces (samples in the
    worker's insertion order, a rebuilt deterministic obs context, the
    replay meta with its counters) or ``None`` when the entry is
    missing or its body malformed — the caller then just re-runs the
    shard.
    """
    if entry is None:
        return None
    body, _ = entry
    try:
        steps = int(body["steps"])
        sim_end_s = float(body["sim_end_s"])
        samples = {
            float(distance): [float(x) for x in readings]
            for distance, readings in body["samples"]
        }
        counters = {
            str(k): int(v) for k, v in dict(body["counters"]).items()
        }
    except (KeyError, TypeError, ValueError):
        return None
    obs = (
        _shard_obs(
            shard, samples, steps, len(distances_m), sim_end_s, counters
        )
        if collect_obs
        else None
    )
    return samples, obs, {
        "steps": steps, "sim_end_s": sim_end_s, "counters": counters
    }


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------

def run_campaign(
    config: BatchCampaignConfig,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    obs: Optional[ObsContext] = None,
    cache=None,
    refresh: bool = False,
) -> BatchCampaignResult:
    """Run the campaign on the replica-batched engine.

    Shards are dispatched through the persistent
    :mod:`repro.exec` backend, packed into one contiguous group per
    lane (``ExecBackend.lanes``: the pool width, or 1 on the serial
    path), each group stepped as one batched link: ``parallel=None``
    auto-enables the process pool when there are several shards and
    more than one worker; ``True``/``False`` force it; ``max_workers``
    pins the pool width (``repro.exec.backend_for`` keeps one warm pool
    per width).  If the pool cannot be started (restricted
    environments), the backend degrades to the sequential path and
    still returns full results.

    ``obs`` collects per-shard spans and ``campaign.*`` metrics: each
    worker fills a deterministic context, the parent merges them all
    into ``obs``, so the aggregate is invariant to worker count.

    ``cache``/``refresh`` control the persistent result store (see
    :mod:`repro.api`): cached shards are restored without running,
    only missing shards are dispatched to the pool, and outputs merge
    in shard order — warm samples are bit-identical to the cold run's.
    """
    from ..store import StoreReport, record_store_metrics, resolve_store

    t_start = wall_clock()
    store = resolve_store(cache)
    shards = config.shards()
    collect = obs is not None
    restored: Dict[int, ShardOutput] = {}
    before = store.snapshot_counters() if store is not None else {}
    keys: Dict[int, str] = {}
    if store is not None:
        keys = {
            shard: _shard_store_key(config, shard, distances)
            for shard, distances in shards
        }
        if not refresh:
            touched = []
            for shard, distances in shards:
                entry = _restore_shard(
                    shard, distances, store.get(keys[shard], touch=False),
                    collect,
                )
                if entry is not None:
                    restored[shard] = entry
                    touched.append(keys[shard])
            store.touch_many(touched)
    run_span = None
    if obs is not None and obs.tracer is not None:
        run_span = obs.tracer.span("campaign.run", sim_start_s=0.0)
        run_span.__enter__()
    pending = [shard for shard in shards if shard[0] not in restored]
    backend = backend_for(max_workers)
    groups = _group_shards(pending, backend.lanes(parallel))
    live: Dict[int, ShardOutput] = {}
    try:
        results = backend.map(
            partial(_run_shard_group, config, collect_obs=collect),
            groups,
            parallel=parallel,
            family="campaign.group",
        )
        for group, outputs in zip(groups, results):
            for (shard, _), (arrays, part, meta) in zip(group, outputs):
                samples = {d: r.tolist() for d, r in arrays.items()}
                live[shard] = (samples, part, meta)
    finally:
        if run_span is not None:
            run_span.annotate(shards=len(shards))
            run_span.end_sim(config.duration_s)
            run_span.__exit__(None, None, None)
    if store is not None and live:
        store.put_many(
            {
                keys[shard]: _shard_store_body(out[0], out[2])
                for shard, out in live.items()
            }
        )

    # Merge in shard order regardless of which side produced the output.
    by_shard = {**restored, **live}
    outputs = [by_shard[shard] for shard, _ in shards]
    samples: Dict[float, List[float]] = {}
    for shard_samples, _, _ in outputs:
        for distance, readings in shard_samples.items():
            samples.setdefault(distance, []).extend(readings)
    if obs is not None:
        obs.merge(ObsContext.merged(part for _, part, _ in outputs))
        _record_campaign_totals(obs, config)
        if store is not None:
            warm = sum(
                len(distances)
                for shard, distances in shards
                if shard in restored
            )
            total = sum(len(distances) for _, distances in shards)
            record_store_metrics(
                obs, store, before,
                StoreReport(
                    enabled=True,
                    points=total,
                    warm_points=warm,
                    entry_hits=len(restored),
                    entry_misses=len(shards) - len(restored),
                ),
            )
    return BatchCampaignResult(
        samples=samples,
        wall_s=wall_clock() - t_start,
        n_replicas=config.n_replicas,
    )


def _record_campaign_totals(
    obs: ObsContext, config: BatchCampaignConfig
) -> None:
    """Parent-side ``campaign.*`` metrics, shared by both engines.

    Emitting the same metric names from :func:`run_campaign` and
    :func:`run_scalar_reference` is the parity contract the RL105-style
    metric-name test pins: the batch engine must not grow observability
    the scalar baseline lacks (or vice versa).
    """
    if obs.metrics is not None:
        obs.metrics.counter("campaign.replicas").inc(
            len(config.distances_m) * config.n_replicas
        )
        obs.metrics.gauge("campaign.duration_s").set(config.duration_s)


def run_scalar_reference(
    config: BatchCampaignConfig,
    n_replicas: Optional[int] = None,
    obs: Optional[ObsContext] = None,
) -> BatchCampaignResult:
    """The identical workload on the scalar engine (the baseline).

    ``n_replicas`` can shrink the replica count so benchmarks can time
    a scalar slice and extrapolate instead of paying the full cost.
    ``obs`` records the same ``campaign.*`` metric names as
    :func:`run_campaign` — the scalar↔batch parity contract.
    """
    if n_replicas is not None:
        config = replace(config, n_replicas=n_replicas)
    t_start = wall_clock()
    run_span = None
    if obs is not None and obs.tracer is not None:
        run_span = obs.tracer.span("campaign.run", sim_start_s=0.0)
        run_span.__enter__()
    samples: Dict[float, List[float]] = {}
    epochs = 0
    try:
        for distance in config.distances_m:
            pooled = samples.setdefault(float(distance), [])
            for replica in range(config.n_replicas):
                streams = RandomStreams(config.seed).fork(replica + 1)
                link = WirelessLink(
                    AerialChannel(profile_by_name(config.profile), streams),
                    scalar_controller(config.controller),
                    streams=streams,
                    epoch_s=config.epoch_s,
                )
                session = IperfSession(link, config.report_interval_s)
                readings = session.run(
                    0.0,
                    config.duration_s,
                    lambda t: float(distance),
                    (lambda t: config.relative_speed_mps)
                    if config.relative_speed_mps
                    else None,
                )
                pooled.extend(readings.values.tolist())
                epochs += int(round(config.duration_s / config.epoch_s))
    finally:
        if run_span is not None:
            run_span.annotate(shards=1)
            run_span.end_sim(config.duration_s)
            run_span.__exit__(None, None, None)
    if obs is not None:
        if obs.metrics is not None:
            obs.metrics.counter("campaign.epochs").inc(epochs)
            obs.metrics.counter("campaign.samples").inc(
                sum(len(v) for v in samples.values())
            )
        _record_campaign_totals(obs, config)
    return BatchCampaignResult(
        samples=samples,
        wall_s=wall_clock() - t_start,
        n_replicas=config.n_replicas,
    )
