"""One rank of a multi-rank co-replay.

A :class:`RankReplica` wraps a single per-rank
:class:`~repro.core.pipeline.ReplayPipeline` run.  Its pipeline is the
standard seven-stage pipeline with one substitution: the single-rank
``init-comms`` stage is replaced by :class:`SyncCollectivesStage`, which —
in addition to creating the runtime and pre-creating the recorded process
groups exactly as ``init-comms`` does — attaches the fleet's shared
:class:`~repro.cluster.rendezvous.EventRendezvous` to the replica's
distributed context.  From then on every collective the replica replays
synchronises with its peers instead of being priced purely locally.

The replica only builds the pipeline and holds the outcome; the
:class:`~repro.cluster.scheduler.RankCursor` drives it as a step generator
so the event scheduler can interleave ranks, and hands the replica's
:attr:`~RankReplica.programs` (the co-replay's shared operator-program
store) to its execute stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Any, Dict, Optional, Sequence

from repro.core.comms_replay import CommReplayManager
from repro.core.pipeline import (
    ReplayContext,
    ReplayHook,
    ReplayPipeline,
    ReplayStage,
    make_replay_runtime,
)
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig, ReplayResult
from repro.core.vectorize import ProgramStore
from repro.cluster.rendezvous import EventRendezvous
from repro.et.trace import ExecutionTrace
from repro.torchsim.profiler import ProfilerTrace


class SyncCollectivesStage(ReplayStage):
    """Cluster-aware replacement for the single-rank ``init-comms`` stage.

    Same duties (create the runtime if the caller did not inject one,
    pre-create every recorded process group outside the measured region),
    plus one more: wire the replica's distributed context to the shared
    rendezvous so its collectives are matched, priced once, and released at
    a common virtual completion time across ranks.
    """

    name = "sync-collectives"

    def __init__(self, rendezvous: EventRendezvous) -> None:
        self.rendezvous = rendezvous

    def run(self, context: ReplayContext) -> None:
        if context.runtime is None:
            context.runtime = make_replay_runtime(context.trace, context.config)
        if context.runtime.dist is not None:
            comm_manager = CommReplayManager(context.runtime.dist, context.config.remap_world_size)
            comm_manager.ensure_groups(CommReplayManager.extract(context.trace))
            context.runtime.dist.rendezvous = self.rendezvous


@dataclass
class RankReplica:
    """One rank's trace, config and pipeline inside a cluster replay."""

    rank: int
    trace: ExecutionTrace
    config: ReplayConfig
    rendezvous: EventRendezvous
    profiler_trace: Optional[ProfilerTrace] = None
    support: Optional[ReplaySupport] = None
    hooks: Sequence[ReplayHook] = field(default_factory=tuple)
    #: Insert the ``track-memory`` stage into this replica's pipeline so
    #: the engine can aggregate per-rank footprints.  OOMs are recorded on
    #: the per-rank report, never raised — one over-budget rank must not
    #: deadlock the fleet's rendezvous.
    track_memory: bool = False
    #: Optional what-if pool bound for the memory simulation.
    memory_budget: Optional[Any] = None
    #: The co-replay's operator-program store, shared by every replica so
    #: a program learned on one rank serves them all; ``None`` gives this
    #: replica a private one.
    programs: Optional[ProgramStore] = None
    result: Optional[ReplayResult] = None
    error: Optional[str] = None
    #: Virtual start of this rank's measured region (set by the cursor);
    #: the engine uses it to window rendezvous stall/skew statistics the
    #: same way every other metric is windowed.
    measure_start_us: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_trace(
        cls,
        trace: ExecutionTrace,
        rendezvous: EventRendezvous,
        config: ReplayConfig,
        profiler_trace: Optional[ProfilerTrace] = None,
        overrides: Optional[Dict[str, Any]] = None,
        support: Optional[ReplaySupport] = None,
        hooks: Optional[Sequence[ReplayHook]] = None,
        track_memory: bool = False,
        memory_budget: Optional[Any] = None,
        programs: Optional[ProgramStore] = None,
    ) -> "RankReplica":
        """Build a replica for ``trace``, with the config's ``rank`` pinned
        to the trace's recorded rank (plus optional per-rank overrides —
        e.g. a power cap on one rank to model a straggler)."""
        rank = int(trace.metadata.get("rank", 0))
        rank_config = dataclass_replace(config, rank=rank, **(overrides or {}))
        return cls(
            rank=rank,
            trace=trace,
            config=rank_config,
            rendezvous=rendezvous,
            profiler_trace=profiler_trace,
            support=support,
            hooks=tuple(hooks or ()),
            track_memory=track_memory,
            memory_budget=memory_budget,
            programs=programs,
        )

    # ------------------------------------------------------------------
    def build_pipeline(self) -> ReplayPipeline:
        """The standard stage pipeline with ``init-comms`` swapped for the
        rendezvous-aware :class:`SyncCollectivesStage` (plus the
        ``track-memory`` stage when per-rank footprints are requested)."""
        pipeline = ReplayPipeline.default().replace(
            "init-comms", SyncCollectivesStage(self.rendezvous)
        )
        if self.track_memory:
            from repro.core.pipeline import TrackMemoryStage

            pipeline.insert_after(
                "assign-streams",
                TrackMemoryStage(budget=self.memory_budget, on_oom="record"),
            )
        return pipeline
