"""Pipeline instrumentation: stage boundaries as telemetry spans.

:class:`TelemetryHook` is the one place in the package that turns stage
boundaries into spans; :class:`~repro.telemetry.profile.ProfileHook` and
``ProfileReport.stage_wall_s`` are views over the spans it records.

It is a :class:`~repro.core.pipeline.ReplayHook`, so it reaches the
replay engine through the same dispatch as every other hook.  With no
hook observing operators the execute loop's ``context.op_observers()``
list is empty and it skips per-op work entirely; with the hook attached
but the tracer disabled, every callback bails after one attribute read.  Either way the
hook is purely observational — it never touches the config, trace or
result, so cache digests and replay output stay byte-identical.

Each pipeline stage becomes a span named ``stage:<name>`` on the
``pipeline`` category, carrying the wall clock from the tracer and —
once the replay runtime exists — the simulated clock via the pure read
``Runtime.now()`` (never ``synchronize()``, which would *advance* the
virtual clock and change results).

Spans cover on-CPU time only.  The cluster scheduler interleaves many
ranks on one thread: when a rank parks on an unresolved collective
(``on_park``) its open stage span ends, and when the scheduler resumes it
(``on_resume``) a new segment of the same stage begins.  A stage that
parks is therefore several ``stage:<name>`` spans, and summing them gives
the wall time the stage really ran — never the time other ranks ran while
this one waited.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.pipeline import ReplayContext, ReplayHook, ReplayStage
from repro.telemetry.tracer import Span, Tracer

#: Name prefix of every stage span.
STAGE_PREFIX = "stage:"


def _virtual_now(context: ReplayContext) -> Optional[float]:
    runtime = getattr(context, "runtime", None)
    if runtime is None:
        return None
    return runtime.now()


class TelemetryHook(ReplayHook):
    """Emits one span per on-CPU stage segment plus resume/error markers.

    ``rank`` (when given) is stamped into every span's correlation so the
    cluster engine can attach one hook per rank to a shared tracer and
    the exporter still tells the lanes apart.
    """

    def __init__(self, tracer: Tracer, rank: Optional[int] = None) -> None:
        self.tracer = tracer
        self._correlation: Dict[str, Any] = {} if rank is None else {"rank": rank}
        self._open: Dict[str, Span] = {}
        #: Stages whose segment ``on_park`` closed, reopened by ``on_resume``.
        self._parked: List[str] = []
        #: Every closed stage span this hook recorded, in completion order
        #: (kept even when the tracer evicts them past ``max_records``).
        self.stage_spans: List[Span] = []
        #: Plain counter kept even when spans are off — folded into the
        #: metrics registry by whoever owns the hook.
        self.ops_replayed = 0

    def stage_wall_seconds(self) -> Dict[str, float]:
        """On-CPU wall seconds per stage: the sum of its span segments."""
        totals: Dict[str, float] = {}
        for span in self.stage_spans:
            name = span.name[len(STAGE_PREFIX):]
            totals[name] = totals.get(name, 0.0) + span.wall_duration_s
        return totals

    # ------------------------------------------------------------------
    def _begin(self, context: ReplayContext, name: str) -> None:
        span = self.tracer.begin(
            STAGE_PREFIX + name,
            category="pipeline",
            virtual_start_us=_virtual_now(context),
        )
        if span is not None:
            span.correlation.update(self._correlation)
            self._open[name] = span

    def _end(self, context: ReplayContext, name: str) -> Optional[Span]:
        span = self._open.pop(name, None)
        if span is not None:
            self.tracer.end(span, virtual_end_us=_virtual_now(context))
            self.stage_spans.append(span)
        return span

    # ------------------------------------------------------------------
    # ReplayHook protocol
    # ------------------------------------------------------------------
    def on_stage_start(self, context: ReplayContext, stage: ReplayStage) -> None:
        if self.tracer.enabled:
            self._begin(context, stage.name)

    def on_stage_end(self, context: ReplayContext, stage: ReplayStage) -> None:
        if self.tracer.enabled:
            self._end(context, stage.name)

    def on_op_replayed(self, context: ReplayContext, entry: Any, output: Any) -> None:
        # Kept to a single integer add: this runs once per replayed op and
        # is what the telemetry_overhead benchmark holds under 5%.
        self.ops_replayed += 1

    def on_park(self, context: ReplayContext) -> None:
        if not self.tracer.enabled:
            return
        self._parked = list(self._open)
        for name in self._parked:
            self._end(context, name)

    def on_resume(self, context: ReplayContext) -> None:
        tracer = self.tracer
        if not tracer.enabled:
            return
        tracer.event(
            "resume",
            category="pipeline",
            virtual_us=_virtual_now(context),
            correlation=self._correlation,
        )
        for name in self._parked:
            self._begin(context, name)
        self._parked = []

    def on_error(
        self, context: ReplayContext, stage: ReplayStage, error: BaseException
    ) -> None:
        tracer = self.tracer
        if not tracer.enabled:
            return
        span = self._open.get(stage.name)
        if span is not None:
            span.attributes["error"] = repr(error)
            self._end(context, stage.name)
        else:
            tracer.event(
                "error",
                category="pipeline",
                virtual_us=_virtual_now(context),
                correlation=self._correlation,
                stage=stage.name,
                error=repr(error),
            )
