"""The multi-rank distributed replay engine.

:class:`ClusterReplayer` takes a *fleet* of per-rank execution traces (as
produced by :class:`repro.workloads.ddp.DistributedRunner` — one trace per
rank, captured from the same iteration) and co-replays them under the
virtual-time collective scheduler:

1. **Fleet plans** (:mod:`repro.cluster.plan`): ranks with the same trace
   content, config (rank aside) and profiler trace share one
   :class:`~repro.cluster.plan.FleetPlan`, so their build products and
   comm records are derived once per plan, not once per rank.
2. **Pre-flight match** (:func:`match_collectives`): every collective is
   matched across ranks by (process group, sequence number, operator
   name) *before* anything replays, so a malformed fleet fails with a
   precise report instead of a mid-replay stall.
3. **Event loop**: one :class:`~repro.core.pipeline.ReplayContext` per
   trace (its config's ``rank`` pinned, plus any per-rank overrides), all
   running the co-replay's one default stage pipeline as op *cursors*
   advanced by the single-threaded
   :class:`~repro.cluster.scheduler.VirtualTimeScheduler` — a cursor parks
   when its next collective cannot resolve yet and is woken when the
   :class:`~repro.cluster.rendezvous.EventRendezvous` resolves the slot,
   so fleets of thousands of ranks need no thread per rank.
4. **Aggregate**: per-rank results and the rendezvous's event log fold into
   a :class:`ClusterReport` — per-rank timelines, exposed-communication
   time, rendezvous stall, and the slowest-rank critical path.

A fleet of **one** trace degrades exactly to the single-rank pipeline: the
rendezvous has no peers to wait for, so every collective starts at its
local arrival time and is priced at the recorded group size — the same
schedule :func:`repro.core.pipeline.run_replay` produces (equivalence is
asserted in ``tests/test_cluster_replay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.comms_replay import CommPlan
from repro.core.pipeline import (
    CheckpointError,
    ReplayCheckpoint,
    ReplayContext,
    ReplayPipeline,
    TrackMemoryStage,
    make_collective_cost_model,
)
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig, ReplayResultSummary
from repro.cluster.plan import FleetPlan, collective_keys, plan_for
from repro.cluster.rendezvous import CollectiveKey, EventRendezvous
from repro.cluster.scheduler import VirtualTimeScheduler
from repro.et.trace import ExecutionTrace
from repro.torchsim.distributed import GroupTables
from repro.torchsim.profiler import ProfilerTrace

if TYPE_CHECKING:
    from repro.service.repository import TraceRepository

#: What :meth:`ClusterReplayer.replay` accepts per rank: a trace, a path to
#: a serialised trace, or a ``RankCapture``/``CaptureResult``-like object
#: carrying ``execution_trace`` (and optionally ``profiler_trace``).
TraceLike = Union[ExecutionTrace, str, Path, object]


#: ReplayConfig fields that describe the fleet, not one rank: the rank
#: itself, the world and its group folding, and the collective cost model
#: the shared rendezvous prices every collective with.
_FLEET_WIDE_FIELDS = frozenset({
    "rank",
    "world_size",
    "remap_world_size",
    "interconnect",
    "topology",
    "comm_delay_scale",
    "comm_extra_delay_us",
})


class ClusterMatchError(ValueError):
    """The per-rank traces do not form a coherent fleet (duplicate ranks,
    or collectives that cannot be matched across ranks)."""


class ClusterReplayError(RuntimeError):
    """One or more rank replicas failed during the co-replay."""

    def __init__(self, errors: Dict[int, str]) -> None:
        self.errors = dict(errors)
        lines = ", ".join(f"rank {rank}: {msg}" for rank, msg in sorted(errors.items()))
        super().__init__(f"{len(errors)} rank replica(s) failed — {lines}")


# ----------------------------------------------------------------------
# Pre-flight collective matching
# ----------------------------------------------------------------------
@dataclass
class CollectiveMatchReport:
    """Result of matching every recorded collective across the fleet."""

    #: (key, seq) slots in which every replayed participant takes part.
    matched: int = 0
    #: Collective invocations that can never rendezvous (some replayed
    #: participant is missing the call); each entry is human-readable.
    unmatched: List[str] = field(default_factory=list)
    #: rank -> number of collective invocations recorded in its trace.
    per_rank_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.unmatched


def _world_size(trace: ExecutionTrace) -> int:
    return int(trace.metadata.get("world_size", 1))


def match_collectives(traces: Sequence[ExecutionTrace]) -> CollectiveMatchReport:
    """Match collectives across the fleet before replaying anything.

    For every collective key (group + op name) the replayed members
    of that group must record the *same number* of invocations; any
    shortfall is reported as unmatched, naming the key and the offending
    ranks.  Groups whose other members are not part of the fleet (a
    partial, symmetric-rank replay) only need agreement among the replayed
    members.
    """
    group_tables = GroupTables()
    return _match([
        (
            int(trace.metadata.get("rank", 0)),
            collective_keys(CommPlan.build(trace), group_tables[_world_size(trace)]),
        )
        for trace in traces
    ])


def _match(rank_keys: Sequence[Tuple[int, Sequence[CollectiveKey]]]) -> CollectiveMatchReport:
    """:func:`match_collectives` over each rank's collective keys."""
    replayed = {rank for rank, _ in rank_keys}
    counts: Dict[int, Dict[CollectiveKey, int]] = {}
    report = CollectiveMatchReport()
    for rank, keys in rank_keys:
        per_key = counts.setdefault(rank, {})
        report.per_rank_counts[rank] = len(keys)
        for key in keys:
            per_key[key] = per_key.get(key, 0) + 1

    all_keys = {key for per_key in counts.values() for key in per_key}
    for key in sorted(all_keys):
        participants = sorted(set(key[0].ranks) & replayed)
        if len(participants) <= 1:
            report.matched += counts.get(participants[0], {}).get(key, 0) if participants else 0
            continue
        per_rank = {rank: counts.get(rank, {}).get(key, 0) for rank in participants}
        want = max(per_rank.values())
        have = min(per_rank.values())
        report.matched += have
        if want != have:
            short = sorted(rank for rank, count in per_rank.items() if count < want)
            report.unmatched.append(
                f"{key[1]} over ranks {list(key[0].ranks)}: rank(s) {short} record fewer "
                f"invocations than their peers ({per_rank})"
            )
    return report


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class RankReport:
    """One rank's measurements inside a cluster replay."""

    rank: int
    summary: ReplayResultSummary
    #: Total GPU time of communication kernels in the measured window.
    comm_time_us: float = 0.0
    #: Communication time not hidden behind compute (Section 3.3's
    #: "exposed GPU time" — the quantity comm/compute overlap minimises).
    exposed_comm_us: float = 0.0
    #: Virtual time this rank spent stalled in the rendezvous, waiting for
    #: slower peers to arrive at shared collectives.
    stall_us: float = 0.0
    #: Simulated memory footprint of this rank
    #: (:class:`~repro.memory.report.MemoryReport`); ``None`` unless the
    #: fleet was replayed with memory tracking enabled.
    memory: Optional[Any] = None
    #: Host wall-time profile of this rank's replay engine
    #: (:class:`~repro.telemetry.ProfileReport`); ``None`` unless the fleet
    #: was replayed with profiling enabled.
    profile: Optional[Any] = None

    @property
    def mean_iteration_time_us(self) -> float:
        return self.summary.mean_iteration_time_us

    @property
    def peak_allocated_bytes(self) -> int:
        return self.memory.peak_allocated_bytes if self.memory is not None else 0

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "rank": self.rank,
            "summary": self.summary.to_dict(),
            "comm_time_us": self.comm_time_us,
            "exposed_comm_us": self.exposed_comm_us,
            "stall_us": self.stall_us,
            "mean_iteration_time_us": self.mean_iteration_time_us,
        }
        # Only present when memory tracking ran, so memory-less reports
        # serialise exactly as they did before the memory subsystem.
        if self.memory is not None:
            data["memory"] = self.memory.summary_dict()
        if self.profile is not None:
            data["profile"] = self.profile.to_dict()
        return data


@dataclass
class ClusterReport:
    """Aggregated outcome of one multi-rank co-replay."""

    device: str
    world_size: int
    ranks: List[RankReport] = field(default_factory=list)
    matched_collectives: int = 0
    unmatched_collectives: int = 0
    max_skew_us: float = 0.0
    mean_skew_us: float = 0.0

    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        return len(self.ranks)

    @property
    def critical_path_us(self) -> float:
        """The fleet's iteration time: the slowest rank bounds the step."""
        return max((rank.mean_iteration_time_us for rank in self.ranks), default=0.0)

    @property
    def straggler_rank(self) -> Optional[int]:
        """The rank on the critical path (slowest mean iteration time)."""
        if not self.ranks:
            return None
        return max(self.ranks, key=lambda r: r.mean_iteration_time_us).rank

    @property
    def mean_iteration_time_us(self) -> float:
        if not self.ranks:
            return 0.0
        return sum(r.mean_iteration_time_us for r in self.ranks) / len(self.ranks)

    @property
    def mean_exposed_comm_us(self) -> float:
        if not self.ranks:
            return 0.0
        return sum(r.exposed_comm_us for r in self.ranks) / len(self.ranks)

    def rank_report(self, rank: int) -> RankReport:
        for report in self.ranks:
            if report.rank == rank:
                return report
        raise KeyError(f"no rank {rank} in this report (ranks: {[r.rank for r in self.ranks]})")

    # ------------------------------------------------------------------
    # Memory aggregation (populated when the fleet replayed with memory
    # tracking; every accessor degrades gracefully without it).
    # ------------------------------------------------------------------
    @property
    def has_memory(self) -> bool:
        return any(rank.memory is not None for rank in self.ranks)

    @property
    def peak_allocated_bytes(self) -> int:
        """The fleet's worst-rank allocated peak (device sizing bound)."""
        return max((rank.peak_allocated_bytes for rank in self.ranks), default=0)

    @property
    def max_memory_rank(self) -> Optional[int]:
        """The rank with the largest simulated footprint — per-rank skew
        (e.g. unbalanced embedding shards) makes this differ from the
        straggler rank."""
        tracked = [rank for rank in self.ranks if rank.memory is not None]
        if not tracked:
            return None
        return max(tracked, key=lambda r: r.peak_allocated_bytes).rank

    @property
    def oom_ranks(self) -> List[int]:
        """Ranks whose simulated footprint exceeded their budget."""
        return sorted(
            rank.rank for rank in self.ranks
            if rank.memory is not None and not rank.memory.fits
        )

    # ------------------------------------------------------------------
    @property
    def has_profiles(self) -> bool:
        return any(rank.profile is not None for rank in self.ranks)

    @property
    def profile_reports(self) -> Dict[int, Any]:
        """Per-rank :class:`~repro.telemetry.ProfileReport` objects, for
        fleets replayed with profiling enabled (empty dict otherwise)."""
        return {
            rank.rank: rank.profile
            for rank in self.ranks
            if rank.profile is not None
        }

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "device": self.device,
            "world_size": self.world_size,
            "num_replicas": self.num_replicas,
            "ranks": [rank.to_dict() for rank in self.ranks],
            "matched_collectives": self.matched_collectives,
            "unmatched_collectives": self.unmatched_collectives,
            "max_skew_us": self.max_skew_us,
            "mean_skew_us": self.mean_skew_us,
            "critical_path_us": self.critical_path_us,
            "straggler_rank": self.straggler_rank,
            "mean_iteration_time_us": self.mean_iteration_time_us,
            "mean_exposed_comm_us": self.mean_exposed_comm_us,
        }
        if self.has_memory:
            data["memory"] = {
                "peak_allocated_bytes": self.peak_allocated_bytes,
                "max_memory_rank": self.max_memory_rank,
                "oom_ranks": self.oom_ranks,
            }
        return data


def _resuming_rank(
    contexts: Sequence[ReplayContext], checkpoint: ReplayCheckpoint
) -> ReplayContext:
    """The one rank a fleet checkpoint was captured on; its config digest
    covers the rank, so no two ranks can match."""
    for context in contexts:
        if (
            context.config.digest() == checkpoint.config_digest
            and context.trace.digest() == checkpoint.trace_digest
        ):
            return context
    raise CheckpointError(
        "checkpoint matches no rank of this fleet: it was captured on another "
        "fleet or under another config"
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ClusterReplayer:
    """Co-replays a fleet of per-rank traces under the shared scheduler.

    Parameters
    ----------
    config:
        Base :class:`ReplayConfig` every rank runs under; each rank's copy
        has its ``rank`` pinned to its trace's recorded rank.  The
        interconnect / comm-delay / topology fields also parameterise the
        shared collective cost model.
    strict_match:
        Raise :class:`ClusterMatchError` when the pre-flight match finds
        unmatched collectives (default); pass ``False`` to attempt the
        replay anyway (mismatched collectives then fail at rendezvous
        time).
    """

    def __init__(
        self,
        config: Optional[ReplayConfig] = None,
        strict_match: bool = True,
        support: Optional[ReplaySupport] = None,
        track_memory: bool = False,
        memory_budget: Optional[Any] = None,
        profile_hook_factory: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self.config = config if config is not None else ReplayConfig()
        self.strict_match = strict_match
        self.support = support
        #: Optional scheduler pick function: chooses which runnable cursor
        #: advances next.  Reports are pick-order independent; the property
        #: suite injects randomised picks here.
        self.scheduler_pick: Optional[Callable[[List[int], int], int]] = None
        #: Per-rank memory footprints (``repro.memory``): simulate each
        #: replica's device memory and aggregate the per-rank reports plus
        #: the max-rank summary onto the :class:`ClusterReport`.
        self.track_memory = track_memory
        self.memory_budget = memory_budget
        #: rank -> :class:`~repro.telemetry.ProfileHook` factory.  When set,
        #: every replica runs with its own profiling hook and the aggregated
        #: :class:`~repro.telemetry.ProfileReport` lands on its
        #: :class:`RankReport` — one hook per rank because the scheduler
        #: interleaves the replicas, so each rank's ops and stages must be
        #: attributed to that rank alone.  A hook without a ``report``
        #: method leaves its rank's profile ``None``.
        self.profile_hook_factory = profile_hook_factory
        #: Optional :class:`~repro.telemetry.Tracer` (set by
        #: ``ClusterSession.with_telemetry()`` or the ``--trace-out`` CLI
        #: path).  When enabled, every replica gets one per-rank stage-span
        #: hook on it — its profile hook when that already records onto
        #: this tracer, else a :class:`~repro.telemetry.TelemetryHook` —
        #: the scheduler emits park/wake/rendezvous events, and
        #: :meth:`replay` records the per-rank virtual-time Gantt (compute /
        #: comms / exposed-comms / stall lanes) onto the tracer.  ``None``
        #: keeps every replay path telemetry-free.
        self.tracer = None

    # ------------------------------------------------------------------
    @staticmethod
    def load_fleet(source: Union[str, Path, TraceRepository]) -> List[ExecutionTrace]:
        """Load every serialised trace under a directory, or under a
        :class:`~repro.service.repository.TraceRepository`'s root (the
        daemon passes its shared one), as one fleet, ordered by recorded
        rank."""
        from repro.service.repository import TraceRepository

        repository = source if isinstance(source, TraceRepository) else TraceRepository(source)
        traces = repository.load_all()
        if not traces:
            raise ClusterMatchError(
                f"no execution traces found under {str(repository.root)!r}"
                + (f" (skipped: {len(repository.invalid)} invalid file(s))" if repository.invalid else "")
            )
        return sorted(traces, key=lambda trace: int(trace.metadata.get("rank", 0)))

    # ------------------------------------------------------------------
    def replay(
        self,
        traces: Sequence[TraceLike],
        profiler_traces: Optional[Sequence[Optional[ProfilerTrace]]] = None,
        rank_overrides: Optional[Dict[int, Dict[str, Any]]] = None,
        pause_check: Optional[Callable[[], Any]] = None,
        resume_from: Optional[ReplayCheckpoint] = None,
    ) -> ClusterReport:
        """Co-replay the fleet and aggregate the :class:`ClusterReport`.

        ``rank_overrides`` maps a rank to :class:`ReplayConfig` field
        overrides for that rank only (e.g. ``{0: {"power_limit_w":
        250.0}}`` to model a power-capped straggler).  Fields that describe
        the whole fleet (the rank, the world and the collective cost
        model) cannot be overridden per rank: they raise
        :class:`ClusterMatchError`.

        ``pause_check`` goes to every rank, so the first rank iteration
        boundary to find it truthy raises that rank's ``ReplayPaused``.
        ``resume_from`` goes to the one rank whose digests it matches; no
        match, or a diverged resume, raises ``CheckpointError``.
        """
        fleet, profilers = self._normalize(traces, profiler_traces)
        rank_overrides = rank_overrides or {}
        ranks = [int(trace.metadata.get("rank", 0)) for trace in fleet]
        if len(set(ranks)) != len(ranks):
            raise ClusterMatchError(f"duplicate ranks in fleet: {sorted(ranks)}")
        unknown = set(rank_overrides) - set(ranks)
        if unknown:
            raise ClusterMatchError(
                f"rank_overrides for rank(s) {sorted(unknown)} not present in the fleet "
                f"(fleet ranks: {sorted(ranks)})"
            )
        for rank, fields in sorted(rank_overrides.items()):
            fleet_wide = sorted(_FLEET_WIDE_FIELDS.intersection(fields))
            if fleet_wide:
                raise ClusterMatchError(
                    f"rank_overrides for rank {rank} set fleet-wide field(s) {fleet_wide}; "
                    "set them on the base config instead"
                )
        if self.config.world_size is not None and self.config.world_size <= max(ranks):
            # A replica's runtime clamps its rank into the configured world
            # (rank = min(rank, world_size - 1)); clamped replicas would
            # collide in the rendezvous and deadlock the fleet.  To shrink
            # a replay, fold the groups instead (remap_world_size) or
            # replay a subset of the per-rank traces.
            raise ClusterMatchError(
                f"world_size {self.config.world_size} cannot cover fleet ranks "
                f"{sorted(ranks)}; a cluster world must be larger than the highest "
                "replayed rank"
            )

        # One fleet plan per plan key: ranks with the same trace content,
        # config and profiler trace share their build products, which
        # also depend on the one replay support every rank gets.
        support = self.support if self.support is not None else ReplaySupport()
        plans: Dict[Any, List[FleetPlan]] = {}
        ranked = []
        for trace, profiler, rank in zip(fleet, profilers, ranks):
            config = dataclass_replace(self.config, rank=rank, **rank_overrides.get(rank, {}))
            ranked.append((trace, profiler, config, plan_for(plans, trace, config, profiler)))

        # The shared pricing model is built exactly the way each rank's own
        # runtime builds it, so a one-rank co-replay prices every
        # collective identically to the single-rank pipeline.
        rendezvous = EventRendezvous(
            cost_model=make_collective_cost_model(self.config),
            participants=ranks,
        )
        match = _match([
            (config.rank, plan.collective_keys(rendezvous.group_tables[_world_size(trace)]))
            for trace, _, config, plan in ranked
        ])
        if self.strict_match and not match.ok:
            raise ClusterMatchError(
                "collectives cannot be matched across the fleet:\n  "
                + "\n  ".join(match.unmatched)
            )
        # One pipeline per co-replay: every rank runs the single-rank
        # default stages.
        pipeline = ReplayPipeline.default()
        if self.track_memory:
            # OOMs are recorded on the per-rank report, never raised: one
            # over-budget rank must not deadlock the fleet's rendezvous.
            pipeline.insert_after(
                "assign-streams", TrackMemoryStage(budget=self.memory_budget, on_oom="record")
            )
        tracer = self.tracer if self.tracer is not None and self.tracer.enabled else None
        profile_hooks: Dict[int, Any] = {}
        contexts = []
        for trace, profiler, config, plan in ranked:
            rank = config.rank
            profile_hook = None
            if self.profile_hook_factory is not None:
                profile_hook = profile_hooks[rank] = self.profile_hook_factory(rank)
            hooks = [] if profile_hook is None else [profile_hook]
            # One stage-span source per rank: a profile hook that already
            # records onto the shared tracer is it; otherwise add one.
            if tracer is not None and getattr(profile_hook, "tracer", None) is not tracer:
                from repro.telemetry import TelemetryHook

                hooks.append(TelemetryHook(tracer, rank=rank))
            contexts.append(
                ReplayContext(
                    trace=trace,
                    config=config,
                    profiler_trace=profiler,
                    support=support,
                    hooks=hooks,
                    pause_check=pause_check,
                    plan=plan,
                    # The report keeps summaries and timeline stats and the
                    # Gantt export reads kernel launches: no rank records a
                    # profiler trace.
                    record_profile=False,
                )
            )
        if resume_from is not None:
            _resuming_rank(contexts, resume_from).resume_from = resume_from

        errors = VirtualTimeScheduler(
            contexts,
            pipeline,
            rendezvous,
            pick=self.scheduler_pick,
            telemetry=self.tracer,
        ).run()
        if errors:
            raise ClusterReplayError(errors)
        return self._aggregate(contexts, rendezvous, match, profile_hooks)

    # ------------------------------------------------------------------
    def _normalize(
        self,
        traces: Sequence[TraceLike],
        profiler_traces: Optional[Sequence[Optional[ProfilerTrace]]],
    ) -> Tuple[List[ExecutionTrace], List[Optional[ProfilerTrace]]]:
        if not traces:
            raise ClusterMatchError("cannot replay an empty fleet")
        fleet: List[ExecutionTrace] = []
        profilers: List[Optional[ProfilerTrace]] = []
        for index, source in enumerate(traces):
            profiler = None
            if isinstance(source, ExecutionTrace):
                trace = source
            elif isinstance(source, (str, Path)):
                trace = ExecutionTrace.load(source)
            else:
                # RankCapture / CaptureResult-like: duck-typed, as in the api
                # facade, so cluster does not force the workloads import.
                trace = getattr(source, "execution_trace", None)
                profiler = getattr(source, "profiler_trace", None)
                if not isinstance(trace, ExecutionTrace):
                    raise TypeError(
                        f"fleet entry {index} is not an ExecutionTrace, a path, or a "
                        f"capture carrying one (got {type(source).__name__})"
                    )
            fleet.append(trace)
            profilers.append(profiler)
        if profiler_traces is not None:
            if len(profiler_traces) != len(fleet):
                raise ValueError(
                    f"profiler_traces has {len(profiler_traces)} entries for a fleet of {len(fleet)}"
                )
            profilers = list(profiler_traces)
        order = sorted(
            range(len(fleet)), key=lambda i: int(fleet[i].metadata.get("rank", 0))
        )
        return [fleet[i] for i in order], [profilers[i] for i in order]

    # ------------------------------------------------------------------
    def _aggregate(
        self,
        contexts: List[ReplayContext],
        rendezvous: EventRendezvous,
        match: CollectiveMatchReport,
        profile_hooks: Dict[int, Any],
    ) -> ClusterReport:
        measure_start_by_rank = {
            context.config.rank: context.measure_start_us for context in contexts
        }
        stats = rendezvous.stats(measure_start_by_rank=measure_start_by_rank)
        world_size = self.config.world_size
        if world_size is None:
            world_size = max(
                (int(context.trace.metadata.get("world_size", 1)) for context in contexts),
                default=1,
            )
        report = ClusterReport(
            device=self.config.device,
            world_size=int(world_size),
            matched_collectives=stats.matched,
            unmatched_collectives=len(match.unmatched),
            max_skew_us=stats.max_skew_us,
            mean_skew_us=stats.mean_skew_us,
        )
        for context in contexts:
            rank, result = context.config.rank, context.result
            timeline = result.timeline_stats
            profile = None
            report_of = getattr(profile_hooks.get(rank), "report", None)
            if report_of is not None:
                profile = report_of(
                    trace_name=str(context.trace.metadata.get("workload", "")),
                    device=context.config.device,
                    vectorized=context.config.vectorized,
                )
            report.ranks.append(
                RankReport(
                    rank=rank,
                    summary=result.summarize(),
                    comm_time_us=timeline.category_kernel_time_us.get("comms", 0.0),
                    exposed_comm_us=timeline.category_exposed_time_us.get("comms", 0.0),
                    stall_us=stats.stall_us_by_rank.get(rank, 0.0),
                    memory=result.memory_report,
                    profile=profile,
                )
            )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            from repro.telemetry import record_cluster_timeline

            record_cluster_timeline(
                tracer,
                {context.config.rank: context.result for context in contexts},
                collective_events=getattr(rendezvous, "events", ()),
                measure_start_by_rank=measure_start_by_rank,
            )
        return report
