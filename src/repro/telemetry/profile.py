"""Replay-throughput profiling: the replay engine's own host wall time.

Everything else in the package profiles the *simulated workload* on a
virtual clock; this module profiles the *replay engine itself* on the
host's real clock, so replay-throughput regressions are visible and the
vectorized execute path (:mod:`repro.core.vectorize`) has measured
justification.

:class:`ProfileHook` is a :class:`~repro.telemetry.hook.TelemetryHook`:
its stage spans are the ordinary ``stage:<name>`` spans, and
``ProfileReport.stage_wall_s`` is their per-stage sum (on-CPU time under
the cluster scheduler).  Pass a shared, enabled
:class:`~repro.telemetry.Tracer` (``.with_telemetry().with_profiling()``
does) and those spans land on the unified timeline; without one the hook
records into a private tracer on its own clock.  What the hook adds on
top is the per-operator table, the measured window and the atexit
summary.

The per-op callback is kept to a dict lookup, one ``clock()`` read and
four list-cell updates; sorting, shares and means happen at
:meth:`ProfileHook.report` time.  Sessions without the hook pay nothing:
the execute loop's ``context.op_observers()`` list is empty, so it skips
per-op notification entirely (``tests/test_profiling.py`` asserts it).

The atexit summary mirrors tinygrad's ``ProfileOp`` idiom: opt-in (pass
``report_at_exit=True`` or set ``REPRO_PROFILE_ATEXIT=1``), written to
stderr once at interpreter shutdown, hot ops first.

All durations use ``time.perf_counter()`` — never the non-monotonic wall
clock, whose NTP slews and steps would corrupt measured windows
(``scripts/check_deprecated_usage.py`` enforces this for the package).
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.pipeline import ReplayContext, ReplayStage
from repro.telemetry.hook import TelemetryHook
from repro.telemetry.tracer import Tracer

#: Bump when the serialized report shape changes incompatibly.
PROFILE_SCHEMA_VERSION = 1


@dataclass
class OpProfile:
    """Aggregated host-side cost of one operator name across a replay."""

    name: str
    count: int
    total_ms: float
    mean_us: float
    min_us: float
    max_us: float
    #: Share of the total per-op wall time, in percent.
    share_pct: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total_ms": self.total_ms,
            "mean_us": self.mean_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
            "share_pct": self.share_pct,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OpProfile":
        return cls(
            name=data["name"],
            count=int(data["count"]),
            total_ms=float(data["total_ms"]),
            mean_us=float(data["mean_us"]),
            min_us=float(data["min_us"]),
            max_us=float(data["max_us"]),
            share_pct=float(data["share_pct"]),
        )


@dataclass
class ProfileReport:
    """One replay's host-side wall-time profile.

    ``ops`` is sorted hot-first (largest ``total_ms`` first).  Stage wall
    times cover the whole pipeline (build stages included) and count only
    the time each stage was on the CPU; ``ops_per_sec``
    covers only the measured iterations of the execute stage, which is the
    throughput number the BENCH trajectory files track.
    """

    trace_name: str = ""
    device: str = ""
    #: Which execute path produced this profile (``ReplayConfig.vectorized``).
    vectorized: bool = True
    #: Per-op replays observed (warm-up and measured iterations alike).
    replayed_ops: int = 0
    #: Per-op replays observed during measured iterations only.
    measured_ops: int = 0
    #: On-CPU wall-clock seconds per pipeline stage, by stage name.
    stage_wall_s: Dict[str, float] = field(default_factory=dict)
    #: Replay throughput over the measured window, operators per second.
    ops_per_sec: float = 0.0
    ops: List[OpProfile] = field(default_factory=list)
    schema_version: int = PROFILE_SCHEMA_VERSION

    @property
    def execute_wall_s(self) -> float:
        """Wall time of the execute stage (the replay hot loop)."""
        return self.stage_wall_s.get("execute", 0.0)

    @property
    def total_op_ms(self) -> float:
        return sum(op.total_ms for op in self.ops)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "trace_name": self.trace_name,
            "device": self.device,
            "vectorized": self.vectorized,
            "replayed_ops": self.replayed_ops,
            "measured_ops": self.measured_ops,
            "stage_wall_s": dict(self.stage_wall_s),
            "execute_wall_s": self.execute_wall_s,
            "ops_per_sec": self.ops_per_sec,
            "ops": [op.to_dict() for op in self.ops],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProfileReport":
        return cls(
            trace_name=data.get("trace_name", ""),
            device=data.get("device", ""),
            vectorized=bool(data.get("vectorized", True)),
            replayed_ops=int(data.get("replayed_ops", 0)),
            measured_ops=int(data.get("measured_ops", 0)),
            stage_wall_s={
                str(name): float(value)
                for name, value in data.get("stage_wall_s", {}).items()
            },
            ops_per_sec=float(data.get("ops_per_sec", 0.0)),
            ops=[OpProfile.from_dict(entry) for entry in data.get("ops", [])],
            schema_version=int(data.get("schema_version", PROFILE_SCHEMA_VERSION)),
        )

    # ------------------------------------------------------------------
    def format_table(self, top: int = 20) -> str:
        """Human-readable hot-first summary (the atexit/CLI rendering)."""
        header = (
            f"replay profile: {self.trace_name or '<trace>'} on "
            f"{self.device or '<device>'} "
            f"({'vectorized' if self.vectorized else 'scalar'}, "
            f"{self.ops_per_sec:,.0f} ops/sec, "
            f"execute {self.execute_wall_s * 1e3:.1f} ms)"
        )
        lines = [header]
        lines.append(
            f"{'op':<40} {'count':>8} {'total ms':>10} {'mean us':>9} "
            f"{'max us':>9} {'share':>7}"
        )
        for op in self.ops[:top]:
            lines.append(
                f"{op.name:<40} {op.count:>8} {op.total_ms:>10.3f} "
                f"{op.mean_us:>9.2f} {op.max_us:>9.2f} {op.share_pct:>6.1f}%"
            )
        remainder = len(self.ops) - top
        if remainder > 0:
            lines.append(f"... {remainder} more operator names")
        stages = ", ".join(
            f"{name}={seconds * 1e3:.1f}ms"
            for name, seconds in sorted(
                self.stage_wall_s.items(), key=lambda item: -item[1]
            )
        )
        if stages:
            lines.append(f"stages: {stages}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The hook
# ----------------------------------------------------------------------
#: Environment variable enabling the atexit summary for every hook.
ATEXIT_ENV = "REPRO_PROFILE_ATEXIT"

_atexit_hooks: List["ProfileHook"] = []
_atexit_registered = False


def _print_atexit_reports() -> None:  # pragma: no cover - interpreter exit
    for hook in _atexit_hooks:
        sys.stderr.write(hook.report().format_table() + "\n")


def _register_atexit(hook: "ProfileHook") -> None:
    global _atexit_registered
    _atexit_hooks.append(hook)
    if not _atexit_registered:
        atexit.register(_print_atexit_reports)
        _atexit_registered = True


class ProfileHook(TelemetryHook):
    """Aggregates per-operator wall time on top of the stage spans.

    Attach via ``session.with_profiling()`` (or append it to a
    ``ReplayContext.hooks`` list) and read :meth:`report` afterwards.  One hook instance profiles one replay;
    attach a fresh instance per replay (or call :meth:`reset`).  With no
    tracer, or a disabled one, stage spans go to a private tracer driven
    by ``clock``.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        report_at_exit: bool = False,
        tracer: Optional[Tracer] = None,
        rank: Optional[int] = None,
    ) -> None:
        self._owns_tracer = tracer is None or not tracer.enabled
        super().__init__(Tracer(clock=clock) if self._owns_tracer else tracer, rank=rank)
        self._clock = clock
        #: op name -> [count, total_s, min_s, max_s]
        self._ops: Dict[str, List[float]] = {}
        self._last_mark = 0.0
        self._measured_ops = 0
        self._measured_start: Optional[float] = None
        self._measured_end = 0.0
        #: Metadata for the report, filled by whoever owns the hook.
        self.trace_name = ""
        self.device = ""
        self.vectorized = True
        if report_at_exit or os.environ.get(ATEXIT_ENV, "") not in ("", "0"):
            _register_atexit(self)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything observed so far (reuse across replays)."""
        if self._owns_tracer:
            self.tracer.clear()
        self._open.clear()
        self._parked = []
        self.stage_spans.clear()
        self.ops_replayed = 0
        self._ops.clear()
        self._last_mark = 0.0
        self._measured_ops = 0
        self._measured_start = None
        self._measured_end = 0.0

    # ------------------------------------------------------------------
    # ReplayHook protocol (stage spans come from TelemetryHook)
    # ------------------------------------------------------------------
    def on_stage_start(self, context: ReplayContext, stage: ReplayStage) -> None:
        super().on_stage_start(context, stage)
        if stage.name == "execute":
            self._last_mark = self._clock()

    def on_resume(self, context: ReplayContext) -> None:
        """Also re-anchor the per-op mark: the event-driven cluster engine
        interleaves many ranks on one thread, and without re-anchoring the
        first op after a context switch would be billed for the wall time
        spent replaying *other* ranks."""
        super().on_resume(context)
        self._last_mark = self._clock()

    def on_op_replayed(self, context: ReplayContext, entry, output) -> None:
        now = self._clock()
        delta = now - self._last_mark
        self._last_mark = now
        cell = self._ops.get(entry.node.name)
        if cell is None:
            self._ops[entry.node.name] = [1, delta, delta, delta]
        else:
            cell[0] += 1
            cell[1] += delta
            if delta < cell[2]:
                cell[2] = delta
            if delta > cell[3]:
                cell[3] = delta
        self.ops_replayed += 1
        if context.measuring:
            self._measured_ops += 1
            if self._measured_start is None:
                self._measured_start = now - delta
            self._measured_end = now

    # ------------------------------------------------------------------
    def report(
        self,
        trace_name: Optional[str] = None,
        device: Optional[str] = None,
        vectorized: Optional[bool] = None,
    ) -> ProfileReport:
        """Aggregate everything observed so far into a structured report."""
        total_s = sum(cell[1] for cell in self._ops.values())
        ops = [
            OpProfile(
                name=name,
                count=int(cell[0]),
                total_ms=cell[1] * 1e3,
                mean_us=(cell[1] / cell[0]) * 1e6 if cell[0] else 0.0,
                min_us=cell[2] * 1e6,
                max_us=cell[3] * 1e6,
                share_pct=(cell[1] / total_s) * 100.0 if total_s > 0 else 0.0,
            )
            for name, cell in self._ops.items()
        ]
        ops.sort(key=lambda op: (-op.total_ms, op.name))
        measured_window_s = (
            self._measured_end - self._measured_start
            if self._measured_start is not None
            else 0.0
        )
        return ProfileReport(
            trace_name=self.trace_name if trace_name is None else trace_name,
            device=self.device if device is None else device,
            vectorized=self.vectorized if vectorized is None else vectorized,
            replayed_ops=self.ops_replayed,
            measured_ops=self._measured_ops,
            stage_wall_s=self.stage_wall_seconds(),
            ops_per_sec=(
                self._measured_ops / measured_window_s if measured_window_s > 0 else 0.0
            ),
            ops=ops,
        )
