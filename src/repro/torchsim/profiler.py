"""The profiler trace (the "Kineto" side of the capture).

The execution trace records operator metadata but no timing, stream or
kernel information; Section 4.5 of the paper therefore pairs it with a
profiler trace that records, for every operator, the GPU kernels it launched
and which CUDA stream each kernel ran on.  Mystique uses that pairing to
dispatch replayed operators onto the right streams.

The simulated profiler records three kinds of events:

* ``cpu_op`` — one span per operator invocation, on the issuing CPU thread,
* ``user_annotation`` — spans for ``record_function`` labels,
* ``kernel`` — one span per launched GPU kernel, tagged with its stream and
  a correlation ID linking it back to the launching operator node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple


@dataclass
class TraceEvent:
    """One profiler event (Chrome-trace style complete event)."""

    name: str
    cat: str                  # "cpu_op" | "user_annotation" | "kernel"
    ts: float                 # start timestamp, microseconds
    dur: float                # duration, microseconds
    tid: str = "main"         # issuing CPU thread ("main" / "autograd")
    pid: int = 0              # rank
    stream: Optional[int] = None
    op_node_id: int = 0       # execution-trace node id of the operator
    correlation: int = 0      # launch correlation id (kernels only)
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(
            name=data["name"],
            cat=data["cat"],
            ts=float(data["ts"]),
            dur=float(data["dur"]),
            tid=data.get("tid", "main"),
            pid=int(data.get("pid", 0)),
            stream=data.get("stream"),
            op_node_id=int(data.get("op_node_id", 0)),
            correlation=int(data.get("correlation", 0)),
            args=dict(data.get("args", {})),
        )


@dataclass
class ProfilerTrace:
    """A collection of profiler events for one process (one rank)."""

    events: List[TraceEvent] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add(self, event: TraceEvent) -> TraceEvent:
        self.events.append(event)
        return event

    def cpu_ops(self) -> List[TraceEvent]:
        return [e for e in self.events if e.cat == "cpu_op"]

    def annotations(self) -> List[TraceEvent]:
        return [e for e in self.events if e.cat == "user_annotation"]

    def kernels(self) -> List[TraceEvent]:
        return [e for e in self.events if e.cat == "kernel"]

    def threads(self) -> List[str]:
        return sorted({e.tid for e in self.events if e.cat in ("cpu_op", "user_annotation")})

    def streams(self) -> List[int]:
        return sorted({e.stream for e in self.kernels() if e.stream is not None})

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def window(self) -> Tuple[float, float]:
        """(start, end) of the captured region across CPU and GPU events."""
        if not self.events:
            return (0.0, 0.0)
        start = min(e.ts for e in self.events)
        end = max(e.end for e in self.events)
        return (start, end)

    def wall_time_us(self) -> float:
        start, end = self.window()
        return end - start

    def total_gpu_time_us(self) -> float:
        return sum(e.dur for e in self.kernels())

    def total_cpu_time_us(self) -> float:
        """Sum of *top-level* CPU operator durations (children excluded)."""
        ops = sorted(self.cpu_ops(), key=lambda e: (e.tid, e.ts))
        total = 0.0
        last_end: Dict[str, float] = {}
        for event in ops:
            covered_until = last_end.get(event.tid, float("-inf"))
            if event.ts >= covered_until:
                total += event.dur
                last_end[event.tid] = event.end
        return total

    def op_stream_map(self) -> Dict[int, List[int]]:
        """Execution-trace node id → list of streams its kernels ran on.

        This is the information Mystique extracts from the profiler trace to
        decide which stream to dispatch each replayed operator to
        (Section 4.5).
        """
        mapping: Dict[int, Set[int]] = {}
        for kernel in self.kernels():
            if kernel.stream is None:
                continue
            mapping.setdefault(kernel.op_node_id, set()).add(kernel.stream)
        return {op_id: sorted(streams) for op_id, streams in mapping.items()}

    def op_gpu_time_map(self) -> Dict[int, float]:
        """Execution-trace node id → total GPU kernel time it launched."""
        mapping: Dict[int, float] = {}
        for kernel in self.kernels():
            mapping[kernel.op_node_id] = mapping.get(kernel.op_node_id, 0.0) + kernel.dur
        return mapping

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "metadata": self.metadata,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProfilerTrace":
        return cls(
            events=[TraceEvent.from_dict(entry) for entry in data.get("events", [])],
            metadata=dict(data.get("metadata", {})),
        )

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Export in the chrome://tracing format for visual inspection."""
        chrome_events = []
        for event in self.events:
            chrome_events.append(
                {
                    "name": event.name,
                    "cat": event.cat,
                    "ph": "X",
                    "ts": event.ts,
                    "dur": event.dur,
                    "pid": event.pid,
                    "tid": event.tid if event.cat != "kernel" else f"stream {event.stream}",
                    "args": {"op_node_id": event.op_node_id, **event.args},
                }
            )
        return {"traceEvents": chrome_events, "metadata": self.metadata}

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()))
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "ProfilerTrace":
        return cls.from_dict(json.loads(Path(path).read_text()))


class Profiler:
    """Collects :class:`TraceEvent` records while enabled.

    Mirrors ``torch.profiler.profile``: create it, ``start()`` / ``stop()``
    (or use it as a context manager), then read :attr:`trace`.
    """

    def __init__(
        self,
        activities: Optional[Iterable[str]] = None,
        on_trace_ready: Optional[Callable[["ProfilerTrace"], None]] = None,
    ) -> None:
        self.activities = set(activities) if activities is not None else {"cpu", "cuda"}
        self.on_trace_ready = on_trace_ready
        self.trace = ProfilerTrace()
        self._enabled = False

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def start(self) -> None:
        self._enabled = True

    def stop(self) -> None:
        self._enabled = False
        if self.on_trace_ready is not None:
            self.on_trace_ready(self.trace)

    def __enter__(self) -> "Profiler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def record_cpu_op(self, event: TraceEvent) -> None:
        if self._enabled and "cpu" in self.activities:
            self.trace.add(event)

    def record_kernel(self, event: TraceEvent) -> None:
        if self._enabled and "cuda" in self.activities:
            self.trace.add(event)
