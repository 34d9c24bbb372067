"""Parallel stream assignment (Section 4.5).

A model's CUDA-stream usage (compute on the default stream, collectives and
host/device copies on side streams) has a significant performance impact
because kernels on different streams overlap.  The execution trace does not
record stream information, so Mystique extracts the operator → stream
mapping from the paired profiler trace and dispatches each replayed operator
to its original stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.et.trace import ExecutionTrace
from repro.torchsim.profiler import ProfilerTrace
from repro.torchsim.stream import DEFAULT_COMPUTE_STREAM


@dataclass
class StreamAssignment:
    """Operator node id → stream the replayer should dispatch it to."""

    op_streams: Dict[int, int] = field(default_factory=dict)
    default_stream: int = DEFAULT_COMPUTE_STREAM

    def stream_for(self, node_id: int) -> int:
        return self.op_streams.get(node_id, self.default_stream)

    def streams_used(self) -> List[int]:
        return sorted(set(self.op_streams.values()) | {self.default_stream})


class StreamAssigner:
    """Builds the stream assignment from a profiler trace."""

    def __init__(self, default_stream: int = DEFAULT_COMPUTE_STREAM):
        self.default_stream = default_stream

    def assign(
        self,
        trace: ExecutionTrace,
        profiler_trace: Optional[ProfilerTrace],
    ) -> StreamAssignment:
        """Derive the operator→stream mapping.

        Kernels are recorded against the (possibly nested) node that
        launched them; the stream of a selected operator is the stream most
        of its own/descendant kernel time ran on.  Without a profiler trace
        everything falls back to the default stream — the replay still runs,
        it just loses compute/communication overlap, which is exactly the
        degradation the paper motivates the profiler-trace pairing with.
        """
        assignment = StreamAssignment(default_stream=self.default_stream)
        if profiler_trace is None:
            return assignment

        # Stream time per launching node.
        per_node_stream_time: Dict[int, Dict[int, float]] = {}
        for kernel in profiler_trace.kernels():
            if kernel.stream is None:
                continue
            per_node_stream_time.setdefault(kernel.op_node_id, {}).setdefault(kernel.stream, 0.0)
            per_node_stream_time[kernel.op_node_id][kernel.stream] += kernel.dur

        # Roll descendant kernels up to every ancestor node.
        parent_of = {node.id: node.parent for node in trace.nodes}
        rolled: Dict[int, Dict[int, float]] = {}
        for node_id, stream_time in per_node_stream_time.items():
            current = node_id
            seen = set()
            while current and current not in seen:
                seen.add(current)
                bucket = rolled.setdefault(current, {})
                for stream, duration in stream_time.items():
                    bucket[stream] = bucket.get(stream, 0.0) + duration
                current = parent_of.get(current, 0)

        for node_id, stream_time in rolled.items():
            dominant = max(stream_time.items(), key=lambda item: item[1])[0]
            assignment.op_streams[node_id] = dominant
        return assignment
