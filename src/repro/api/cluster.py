"""The fluent cluster-replay session behind :func:`repro.api.replay_cluster`.

A :class:`ClusterSession` accumulates *what* to co-replay (a fleet of
per-rank traces, captures, paths, or a directory of serialised traces) and
*how* (device, priced world size, iterations, interconnect, per-rank
straggler overrides), then hands everything to the
:class:`~repro.cluster.engine.ClusterReplayer`::

    report = (
        api.replay_cluster("traces/rm_64rank/")
        .world(64)
        .on("A100")
        .iterations(3, warmup=1)
        .configure_rank(0, device="V100")    # model a straggler
        .run()
    )
    critical_path, straggler = report.critical_path_us, report.straggler_rank

Every mutator returns ``self``; nothing executes until :meth:`run`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.api.session import SessionBase
from repro.cluster.engine import ClusterReplayer, ClusterReport, TraceLike
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig
from repro.hardware.network import InterconnectSpec

#: What :func:`repro.api.replay_cluster` accepts: a directory of serialised
#: traces, or an explicit sequence of per-rank sources.
FleetSource = Union[str, Path, Sequence[TraceLike]]


class ClusterSession(SessionBase):
    """Fluent builder for one multi-rank co-replay; its config is the base
    config every rank runs under."""

    def __init__(
        self,
        fleet: FleetSource,
        config: Optional[ReplayConfig] = None,
        support: Optional[ReplaySupport] = None,
    ) -> None:
        super().__init__(config if config is not None else ReplayConfig(), support)
        self._fleet = fleet
        self._rank_overrides: Dict[int, Dict[str, Any]] = {}
        self._strict_match = True
        self._track_memory = False
        self._memory_budget: Optional[Any] = None
        self._last_report: Optional[ClusterReport] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def world(self, world_size: int) -> "ClusterSession":
        """World size the collectives are priced at.

        Defaults to the world size recorded in the trace metadata; override
        it to re-price a fleet as if it ran at a different scale (the
        scale-down emulation of Section 7.3, fleet edition).
        """
        return self.configure(world_size=world_size)

    def interconnect(self, spec: InterconnectSpec) -> "ClusterSession":
        """Cluster-fabric description pricing every matched collective."""
        return self.configure(interconnect=spec)

    def topology(self, name: Optional[str]) -> "ClusterSession":
        """Hierarchical-fabric preset pricing the collectives
        (``"nvlink-island"``, ``"rail-spine"``; ``"flat"``/``None`` keep
        the classic two-level model).  Combine with :meth:`world` to ask
        what a fleet costs at, say, 1024 ranks on a rail/spine fabric."""
        return self.configure(topology=None if name == "flat" else name)

    def comm_delay(self, scale: float = 1.0, extra_us: float = 0.0) -> "ClusterSession":
        """Scale/offset collective durations (scale-down emulation knobs)."""
        return self.configure(comm_delay_scale=scale, comm_extra_delay_us=extra_us)

    def configure_rank(self, rank: int, /, **fields: Any) -> "ClusterSession":
        """Override config fields for one rank only — the straggler
        modelling knob (e.g. ``configure_rank(0, device="V100")``).
        Fleet-wide fields (``rank``, the world, the collective cost model)
        raise :class:`~repro.cluster.engine.ClusterMatchError` at run
        time."""
        self._rank_overrides.setdefault(int(rank), {}).update(fields)
        return self

    def with_memory(self, budget: Optional[Any] = None) -> "ClusterSession":
        """Track every replica's simulated device-memory footprint.

        The resulting :class:`~repro.cluster.engine.ClusterReport` carries
        one :class:`~repro.memory.report.MemoryReport` per rank plus the
        max-rank summary (``peak_allocated_bytes``, ``max_memory_rank``,
        ``oom_ranks``).  ``budget`` bounds the simulated pool per rank
        (bytes or a ``"16GB"`` string); over-budget ranks record a
        structured OOM on their report rather than aborting the fleet.
        """
        self._track_memory = True
        self._memory_budget = budget
        return self

    # ------------------------------------------------------------------
    # Execution policy
    # ------------------------------------------------------------------
    def lenient_match(self) -> "ClusterSession":
        """Attempt the replay even when the pre-flight collective match
        reports unmatched collectives (they then fail at rendezvous time)."""
        self._strict_match = False
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> ClusterReport:
        """Pre-flight-match, co-replay the fleet, and aggregate the report."""
        profile_hook_factory = None
        if self._profile:
            from repro.telemetry import ProfileHook

            tracer = self._tracer

            def profile_hook_factory(rank: int) -> ProfileHook:
                return ProfileHook(tracer=tracer, rank=rank)

        replayer = ClusterReplayer(
            config=self._config,
            strict_match=self._strict_match,
            support=self._support,
            track_memory=self._track_memory,
            memory_budget=self._memory_budget,
            profile_hook_factory=profile_hook_factory,
        )
        replayer.tracer = self._tracer
        fleet = self._fleet
        if isinstance(fleet, (str, Path)):
            fleet = ClusterReplayer.load_fleet(fleet)
        report = replayer.replay(fleet, rank_overrides=self._rank_overrides or None)
        self._last_report = report
        return report

    def analyze(
        self,
        top: int = 5,
        straggler_threshold_pct: Optional[float] = None,
    ) -> Any:
        """Critical-path attribution of the last :meth:`run`.

        Returns a :class:`~repro.insights.CriticalPathReport`: per-rank
        compute/comm/stall decomposition with overlap scores, straggler
        detection, and — when the session ran with telemetry — the
        dominant ops and collectives from the virtual-time Gantt slices.
        """
        if self._last_report is None:
            raise RuntimeError("nothing to analyze — call .run() first")
        from repro.insights import analyze_critical_path
        from repro.insights.critical_path import DEFAULT_STRAGGLER_THRESHOLD_PCT

        return analyze_critical_path(
            self._last_report,
            trace=self._tracer,
            top=top,
            straggler_threshold_pct=(
                DEFAULT_STRAGGLER_THRESHOLD_PCT
                if straggler_threshold_pct is None
                else straggler_threshold_pct
            ),
        )
