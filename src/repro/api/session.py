"""The fluent replay session builder behind :func:`repro.api.replay`.

A :class:`ReplaySession` accumulates *what* to replay (a trace, a capture,
or a path to a serialised trace), *how* to replay it (a
:class:`~repro.core.replayer.ReplayConfig`, built up field by field), and
*who gets to watch or change it* (hooks, stage edits), then runs the stage
pipeline::

    result = (
        api.replay(trace)
        .on("A100")
        .select(categories=("aten",))
        .iterations(5, warmup=1)
        .hook(ProgressHook())
        .run()
    )

Every mutator returns ``self`` so calls chain; nothing executes until
:meth:`run` (or :meth:`summarize`).  A session owns a private pipeline
clone, so stage edits never leak into other sessions.  The config
mutators and the telemetry surface live on :class:`SessionBase`, which
:class:`~repro.api.cluster.ClusterSession` shares.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Any, List, Optional, Sequence, TypeVar, Union

from repro.core.pipeline import ReplayContext, ReplayHook, ReplayPipeline, ReplayStage
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig, ReplayResult, ReplayResultSummary
from repro.et.trace import ExecutionTrace
from repro.torchsim.profiler import ProfilerTrace

#: What :func:`repro.api.replay` accepts as a replay source.
ReplaySource = Union[ExecutionTrace, str, Path, "CaptureResult"]  # noqa: F821

_Session = TypeVar("_Session", bound="SessionBase")


class SessionBase:
    """What the single-rank and the cluster session share: the replay
    config and its mutators, the replay-support policy, and the telemetry
    surface.  In a :class:`~repro.api.cluster.ClusterSession` the config
    is every rank's base config and each rank gets its own observers."""

    def __init__(self, config: ReplayConfig, support: Optional[ReplaySupport]) -> None:
        self._config = config
        self._support = support
        self._profile = False
        self._tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def config(self) -> ReplayConfig:
        """The config the session will replay under (read-only snapshot)."""
        return self._config

    def using(self: _Session, config: ReplayConfig) -> _Session:
        """Replace the whole config (later field mutators still apply)."""
        self._config = config
        return self

    def configure(self: _Session, **fields: Any) -> _Session:
        """Override arbitrary :class:`ReplayConfig` fields by name.

        Unknown field names raise ``TypeError`` — a typo never silently
        vanishes into a default config.
        """
        self._config = dataclass_replace(self._config, **fields)
        return self

    def on(self: _Session, device: str) -> _Session:
        """Target device spec (``"A100"``, ``"V100"``, ``"NewPlatform"`` …)."""
        return self.configure(device=device)

    def iterations(self: _Session, count: int, warmup: Optional[int] = None) -> _Session:
        """Measured iteration count (and optionally the warm-up count)."""
        overrides: dict = {"iterations": count}
        if warmup is not None:
            overrides["warmup_iterations"] = warmup
        return self.configure(**overrides)

    def with_support(self: _Session, support: ReplaySupport) -> _Session:
        """Replay-support policy (custom-operator registrations)."""
        self._support = support
        return self

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def with_profiling(self: _Session) -> _Session:
        """Profile the replay engine itself (host wall time per operator).

        Each :meth:`run` gives every replayed rank a fresh
        :class:`~repro.telemetry.ProfileHook`; with :meth:`with_telemetry`
        too, that hook is the rank's one stage-span source and records
        onto the session tracer.  In a co-replay the scheduler closes a
        rank's stage spans when it parks (``on_park``) and reopens them on
        ``on_resume``, so per-rank stage and op times count that rank's
        on-CPU work only.  The aggregated
        :class:`~repro.telemetry.ProfileReport` is ``result.profile_report``
        after a single replay, and ``report.rank_report(r).profile`` /
        ``report.profile_reports`` after a co-replay.  Profiling observes
        through the hook protocol only — results and cache digests are
        unchanged, and sessions without the hook pay zero per-op overhead.
        """
        self._profile = True
        return self

    def with_telemetry(
        self: _Session, tracer: Optional[Any] = None, enabled: bool = True
    ) -> _Session:
        """Trace the replay on the unified telemetry timeline.

        Each :meth:`run` gives every replayed rank a
        :class:`~repro.telemetry.TelemetryHook` (its
        :class:`~repro.telemetry.ProfileHook` when profiling is on)
        recording one wall+virtual span per pipeline stage onto ``tracer``
        (a fresh :class:`~repro.telemetry.Tracer` is created when none is
        given).  After :meth:`run` the measured kernel launches are folded
        in as compute/comms/exposed-comms Gantt slices — per rank, with
        stall lanes and the event scheduler's park/wake/rendezvous markers,
        for a co-replay — and :meth:`export_trace` writes the whole thing
        as Chrome-trace JSON.  Telemetry observes through the hook protocol
        only, so results and cache digests are byte-identical with it on,
        off (``enabled=False``) or absent — the disabled path costs one
        attribute read per callback.
        """
        from repro.telemetry import Tracer

        self._tracer = tracer if tracer is not None else Tracer(enabled=enabled)
        return self

    @property
    def tracer(self) -> Optional[Any]:
        """The session's :class:`~repro.telemetry.Tracer` (set by
        :meth:`with_telemetry`), or ``None``."""
        return self._tracer

    def export_trace(self, path: Union[str, Path]) -> Path:
        """Write the telemetry timeline as Chrome-trace JSON to ``path``.

        Requires :meth:`with_telemetry` and a completed :meth:`run`.
        """
        if self._tracer is None:
            raise RuntimeError(
                "no telemetry on this session — call .with_telemetry() before .run()"
            )
        from repro.telemetry import write_chrome_trace

        return write_chrome_trace(self._tracer, Path(path))


class ReplaySession(SessionBase):
    """Fluent builder for one replay through the stage pipeline."""

    def __init__(
        self,
        source: ReplaySource,
        profiler_trace: Optional[ProfilerTrace] = None,
        config: Optional[ReplayConfig] = None,
        support: Optional[ReplaySupport] = None,
        pipeline: Optional[ReplayPipeline] = None,
    ) -> None:
        # Paths are resolved lazily (nothing is read until run time); other
        # sources are normalised now so type errors fail fast.
        self._trace_path: Optional[Path] = None
        if isinstance(source, (str, Path)):
            self._trace_path = Path(source)
            trace, inferred_profiler, inferred_device = None, None, None
        else:
            trace, inferred_profiler, inferred_device = _resolve_source(source)
        self._trace = trace
        self._profiler_trace = profiler_trace if profiler_trace is not None else inferred_profiler
        if config is None:
            config = ReplayConfig(device=inferred_device) if inferred_device else ReplayConfig()
        super().__init__(config, support)
        self._pipeline = (pipeline if pipeline is not None else ReplayPipeline.default()).clone()
        self._hooks: List[ReplayHook] = []
        self._last_result: Optional[ReplayResult] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def select(
        self,
        categories: Optional[Sequence[str]] = None,
        subtrace: Optional[str] = None,
    ) -> "ReplaySession":
        """Restrict replay to operator categories and/or a subtrace label."""
        overrides: dict = {}
        if categories is not None:
            overrides["categories"] = tuple(categories)
        if subtrace is not None:
            overrides["subtrace_label"] = subtrace
        return self.configure(**overrides)

    def power_limit(self, watts: Optional[float]) -> "ReplaySession":
        """GPU power cap in Watts (``None`` for the device's TDP)."""
        return self.configure(power_limit_w=watts)

    def with_profiler(self, profiler_trace: Optional[ProfilerTrace]) -> "ReplaySession":
        """Profiler trace guiding stream placement (``None`` to drop it)."""
        self._profiler_trace = profiler_trace
        return self

    def with_memory(
        self,
        budget: Optional[Any] = None,
        on_oom: str = "record",
        keep_timeline: bool = True,
    ) -> "ReplaySession":
        """Track the replay's simulated device-memory footprint.

        Inserts the ``track-memory`` stage (after stream assignment, so
        tensors land on their recorded streams); the resulting
        :class:`~repro.memory.report.MemoryReport` is available as
        ``result.memory_report`` after :meth:`run`.  ``budget`` caps the
        simulated pool below the device's capacity (bytes or a ``"16GB"``
        string) for OOM what-if replays; ``on_oom="raise"`` aborts the
        replay with :class:`~repro.memory.report.SimulatedOOMError` when
        the trace does not fit.  Timing results and cache digests are
        unaffected either way.
        """
        from repro.core.pipeline import TrackMemoryStage

        stage = TrackMemoryStage(budget=budget, on_oom=on_oom, keep_timeline=keep_timeline)
        if TrackMemoryStage.name in self._pipeline.stage_names():
            self._pipeline.replace(TrackMemoryStage.name, stage)
        else:
            self._pipeline.insert_after("assign-streams", stage)
        return self

    # ------------------------------------------------------------------
    # Observation and stage composition
    # ------------------------------------------------------------------
    def hook(self, *hooks: ReplayHook) -> "ReplaySession":
        """Register lifecycle/per-op observers for every run, each once.
        They see each event after the run's profiling/telemetry hook, in
        registration order."""
        for one in hooks:
            if one not in self._hooks:
                self._hooks.append(one)
        return self

    def insert_stage(
        self,
        stage: ReplayStage,
        before: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "ReplaySession":
        """Insert a custom stage relative to a named one."""
        if (before is None) == (after is None):
            raise ValueError("pass exactly one of before= / after=")
        if before is not None:
            self._pipeline.insert_before(before, stage)
        else:
            self._pipeline.insert_after(after, stage)
        return self

    def replace_stage(self, name: str, stage: ReplayStage) -> "ReplaySession":
        """Swap the named stage for a custom implementation."""
        self._pipeline.replace(name, stage)
        return self

    def without_stage(self, *names: str) -> "ReplaySession":
        """Drop the named stages.

        A pipeline without the measure stage produces no result — execute
        it with :meth:`run_context` (a dry build) rather than :meth:`run`.
        """
        self._pipeline.skip(*names)
        return self

    @property
    def pipeline(self) -> ReplayPipeline:
        """This session's private pipeline (for advanced composition)."""
        return self._pipeline

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_context(self) -> ReplayContext:
        """The context :meth:`run` would thread through the pipeline.

        A path source is loaded here (first call), not at construction.
        """
        if self._trace is None:
            self._trace = ExecutionTrace.load(self._trace_path)
        return ReplayContext(
            trace=self._trace,
            profiler_trace=self._profiler_trace,
            config=self._config,
            support=self._support,
            hooks=list(self._hooks),
        )

    def _attach_stage_hook(self, context: ReplayContext) -> Optional[Any]:
        """Attach the one stage-span hook a run gets, ahead of the session's
        own hooks, and return it: a fresh
        :class:`~repro.telemetry.ProfileHook` when profiling (sharing the
        session tracer), else a :class:`~repro.telemetry.TelemetryHook`
        when tracing, else none."""
        from repro.telemetry import ProfileHook, TelemetryHook

        if self._profile:
            hook = ProfileHook(tracer=self._tracer)
        elif self._tracer is not None:
            hook = TelemetryHook(self._tracer)
        else:
            return None
        context.hooks.insert(0, hook)
        return hook

    def run(self) -> ReplayResult:
        """Execute the pipeline and return the full measurement."""
        context = self.build_context()
        hook = self._attach_stage_hook(context)
        result = self._pipeline.run(context)
        if self._profile:
            result.profile_report = hook.report(
                trace_name=str(context.trace.metadata.get("workload", "")),
                device=self._config.device,
                vectorized=getattr(self._config, "vectorized", True),
            )
        if self._tracer is not None and self._tracer.enabled:
            from repro.telemetry import record_replay_timeline

            record_replay_timeline(
                self._tracer, result, rank=int(self._config.rank or 0)
            )
        self._last_result = result
        return result

    def analyze(self, top: int = 5) -> Any:
        """Critical-path attribution of the last :meth:`run`.

        Returns a :class:`~repro.insights.CriticalPathReport` ranking
        the ops and collectives behind the measured iteration time,
        with the comm/compute overlap score.
        """
        if self._last_result is None:
            raise RuntimeError("nothing to analyze — call .run() first")
        from repro.insights import analyze_replay_result

        return analyze_replay_result(
            self._last_result,
            rank=int(self._config.rank or 0),
            device=self._config.device,
            top=top,
        )

    def run_context(self) -> ReplayContext:
        """Execute the pipeline and return the threaded context.

        Unlike :meth:`run`, no final result is demanded — the entry point
        for partial pipelines (e.g. ``.without_stage("measure")`` dry
        builds, or build-phase-only inspection).
        """
        context = self.build_context()
        self._attach_stage_hook(context)
        return self._pipeline.run_context(context)

    def summarize(self) -> ReplayResultSummary:
        """Execute and return only the compact, cacheable summary."""
        return self.run().summarize()


def _resolve_source(source: ReplaySource):
    """Normalise a non-path replay source to (trace, profiler trace or
    None, device hint or None).  Paths never reach here — the session
    stores them and loads lazily in :meth:`ReplaySession.build_context`."""
    if isinstance(source, ExecutionTrace):
        return source, None, None
    # A bench-harness CaptureResult carries the trace, the profiler trace
    # and the capture device; duck-typed so api does not force the import.
    trace = getattr(source, "execution_trace", None)
    if isinstance(trace, ExecutionTrace):
        return (
            trace,
            getattr(source, "profiler_trace", None),
            getattr(source, "device", None),
        )
    raise TypeError(
        "repro.api.replay() expects an ExecutionTrace, a CaptureResult, or a "
        f"path to a serialised trace; got {type(source).__name__}"
    )
