"""The simulated framework runtime.

The :class:`Runtime` is the meeting point of everything in ``torchsim``:

* it dispatches operator calls through the registry, tracking the CPU clock
  of each issuing thread and the parent/child call stack,
* it launches simulated GPU kernels onto streams and hands them to the GPU
  timeline for start/end resolution,
* it notifies the attached :class:`~repro.torchsim.observer.ExecutionGraphObserver`
  (execution-trace nodes) and :class:`~repro.torchsim.profiler.Profiler`
  (CPU spans and kernel spans),
* it exposes ``record_function`` annotations, stream/thread scoping and
  device synchronisation.

Time is measured in microseconds on a virtual clock.  CPU threads advance
their clock as they dispatch operators and launch kernels; GPU kernels run
asynchronously on streams, and ``synchronize()`` joins the two worlds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.hardware.costmodel import KernelCostModel
from repro.hardware.gpu import GpuTimeline, TimelineStats
from repro.hardware.power import PowerModel
from repro.hardware.specs import DeviceSpec, get_device_spec
from repro.torchsim.distributed import DistributedContext, Work
from repro.torchsim.kernel import KernelDesc, KernelLaunch, OpCategory
from repro.torchsim.observer import ExecutionGraphObserver
from repro.torchsim.profiler import Profiler, TraceEvent
from repro.torchsim.ops.registry import OperatorRegistry, global_registry
from repro.torchsim.stream import DEFAULT_COMPUTE_STREAM, StreamPool

#: Main Python thread name (forward pass, optimizer).
MAIN_THREAD = "main"
#: The autograd engine's worker thread (backward pass).
AUTOGRAD_THREAD = "autograd"

#: Dispatch overhead of nested (child) operator calls relative to top-level
#: calls — child dispatches skip much of the framework's bookkeeping.
_NESTED_DISPATCH_FACTOR = 0.4
#: CPU cost of recording a pure annotation node, in microseconds.
_ANNOTATION_OVERHEAD_US = 1.0


@dataclass
class _Frame:
    """One entry of the operator call stack."""

    node_id: int
    name: str
    category: OpCategory
    start_ts: float
    thread: str
    #: True for ``record_function`` annotation scopes; annotations parent
    #: their children in the trace but do not make those children "nested
    #: dispatches" (only real operator frames do).
    is_annotation: bool = False


class OpContext:
    """Execution context passed to operator implementations."""

    def __init__(self, runtime: "Runtime", frame: _Frame):
        self.runtime = runtime
        self.frame = frame

    # ------------------------------------------------------------------
    @property
    def spec(self) -> DeviceSpec:
        return self.runtime.spec

    @property
    def cost_model(self) -> KernelCostModel:
        return self.runtime.cost_model

    @property
    def dist(self) -> Optional[DistributedContext]:
        return self.runtime.dist

    @property
    def current_stream(self) -> int:
        return self.runtime.current_stream

    def call(self, op_name: str, *args, **kwargs):
        """Invoke another operator as a child of the current one."""
        return self.runtime.call(op_name, *args, **kwargs)

    def launch(
        self,
        desc: KernelDesc,
        stream_id: Optional[int] = None,
        duration_us: Optional[float] = None,
        blocking: bool = False,
        start_not_before: Optional[float] = None,
    ) -> KernelLaunch:
        """Launch a simulated GPU kernel on behalf of the current operator."""
        return self.runtime.launch_kernel(
            desc,
            stream_id=stream_id,
            duration_us=duration_us,
            blocking=blocking,
            frame=self.frame,
            start_not_before=start_not_before,
        )

    def compute_stream_ready(self) -> float:
        """Time at which the default compute stream drains its queued work.

        Cross-stream consumers (collectives reading tensors produced by
        compute kernels) use this as their earliest possible start time.
        """
        from repro.torchsim.stream import DEFAULT_COMPUTE_STREAM

        return self.runtime.gpu.stream_ready_time(DEFAULT_COMPUTE_STREAM)

    def async_work(self, launch: KernelLaunch) -> Work:
        """Wrap a launched collective into an asynchronous work handle."""
        return Work(self.runtime, launch)


class Runtime:
    """One simulated process: a CPU front-end driving one GPU."""

    def __init__(
        self,
        device: str = "A100",
        power_limit_w: Optional[float] = None,
        cost_model_mode: str = "roofline",
        rank: int = 0,
        dist: Optional[DistributedContext] = None,
        registry: Optional[OperatorRegistry] = None,
    ) -> None:
        self.spec = get_device_spec(device) if isinstance(device, str) else device
        self.power_model = PowerModel(self.spec, power_limit_w)
        self.cost_model = KernelCostModel(
            self.spec, clock_scale=self.power_model.clock_scale, mode=cost_model_mode
        )
        self.rank = rank
        self.dist = dist
        self.registry = registry if registry is not None else global_registry
        self.gpu = GpuTimeline(device_index=rank)
        self.streams = StreamPool(device_index=rank)
        self.observer: Optional[ExecutionGraphObserver] = None
        self.profiler: Optional[Profiler] = None

        self._next_node_id = 2  # node 1 is the ET root
        self._next_correlation_id = 1
        self._cpu_clock: Dict[str, float] = {MAIN_THREAD: 0.0}
        self._call_stack: Dict[str, List[_Frame]] = {MAIN_THREAD: []}
        self._stream_override: Dict[str, List[int]] = {MAIN_THREAD: []}
        self._current_thread = MAIN_THREAD

    # ------------------------------------------------------------------
    # Attachments
    # ------------------------------------------------------------------
    def attach_observer(self, observer: ExecutionGraphObserver) -> ExecutionGraphObserver:
        self.observer = observer
        return observer

    def attach_profiler(self, profiler: Profiler) -> Profiler:
        self.profiler = profiler
        return profiler

    # ------------------------------------------------------------------
    # ID allocation
    #
    # Node and correlation IDs are plain integer cursors (not opaque
    # iterators) so the vectorized replay path can reserve a block of IDs
    # for a pre-captured operator program and reproduce the exact IDs the
    # scalar path would have assigned.
    # ------------------------------------------------------------------
    @property
    def node_cursor(self) -> int:
        """The next execution-trace node ID that will be assigned."""
        return self._next_node_id

    @property
    def correlation_cursor(self) -> int:
        """The next kernel-launch correlation ID that will be assigned."""
        return self._next_correlation_id

    def take_node_id(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def take_correlation_id(self) -> int:
        correlation_id = self._next_correlation_id
        self._next_correlation_id += 1
        return correlation_id

    def reserve_node_ids(self, count: int) -> int:
        """Claim ``count`` consecutive node IDs; returns the first one."""
        base = self._next_node_id
        self._next_node_id += count
        return base

    def cpu_clocks(self) -> Dict[str, float]:
        """Snapshot of every CPU thread's clock (microseconds)."""
        return dict(self._cpu_clock)

    def clock_state(self) -> tuple:
        """Snapshot of the dispatch-cursor state :meth:`call` mutates
        *before* an operator function runs: the per-thread CPU clocks, the
        node/correlation ID cursors and the issuing thread.

        :func:`~repro.torchsim.distributed.retry_collective` snapshots
        this around each collective attempt: a collective whose rendezvous
        is not yet resolved aborts mid-``call`` (after the dispatch overhead
        and node ID were consumed), and :meth:`restore_clock_state` rolls
        those back so the retried attempt replays identically.  Everything else
        ``call`` touches is either exception-safe (call stack, stream
        override) or only mutated after the function returns (observer,
        profiler, GPU launches).
        """
        return (
            dict(self._cpu_clock),
            self._next_node_id,
            self._next_correlation_id,
            self._current_thread,
        )

    def restore_clock_state(self, state: tuple) -> None:
        """Restore a :meth:`clock_state` snapshot (see there)."""
        clocks, node_id, correlation_id, thread = state
        self._cpu_clock.clear()
        self._cpu_clock.update(clocks)
        self._next_node_id = node_id
        self._next_correlation_id = correlation_id
        self._current_thread = thread

    # ------------------------------------------------------------------
    # Clocks, threads and streams
    # ------------------------------------------------------------------
    @property
    def current_thread(self) -> str:
        return self._current_thread

    def now(self, thread: Optional[str] = None) -> float:
        """Current CPU clock of a thread, in microseconds."""
        return self._cpu_clock.get(thread or self._current_thread, 0.0)

    def advance_cpu(self, microseconds: float, thread: Optional[str] = None) -> float:
        name = thread or self._current_thread
        self._cpu_clock[name] = self._cpu_clock.get(name, 0.0) + microseconds
        return self._cpu_clock[name]

    def block_until(self, timestamp: float, thread: Optional[str] = None) -> float:
        """Advance a CPU thread's clock to at least ``timestamp``."""
        name = thread or self._current_thread
        self._cpu_clock[name] = max(self._cpu_clock.get(name, 0.0), timestamp)
        return self._cpu_clock[name]

    @contextmanager
    def thread(self, name: str):
        """Temporarily switch the issuing CPU thread (e.g. autograd).

        The new thread's clock starts no earlier than the switching thread's
        current time — backward work cannot begin before it is scheduled.
        """
        previous = self._current_thread
        self._cpu_clock.setdefault(name, 0.0)
        self._cpu_clock[name] = max(self._cpu_clock[name], self._cpu_clock.get(previous, 0.0))
        self._call_stack.setdefault(name, [])
        self._stream_override.setdefault(name, [])
        self._current_thread = name
        try:
            yield self
        finally:
            # Work queued after the scoped region resumes after the scoped
            # thread finished (the main thread joins the autograd thread).
            self._cpu_clock[previous] = max(
                self._cpu_clock.get(previous, 0.0), self._cpu_clock.get(name, 0.0)
            )
            self._current_thread = previous

    @property
    def current_stream(self) -> int:
        override = self._stream_override.get(self._current_thread, [])
        return override[-1] if override else DEFAULT_COMPUTE_STREAM

    @property
    def stream_override_active(self) -> bool:
        """True when the caller scoped execution to an explicit stream.

        Operators with a library-default stream (NCCL collectives) honour an
        explicit override — this is what lets the replayer dispatch them to
        the stream recorded in the profiler trace.
        """
        return bool(self._stream_override.get(self._current_thread, []))

    @contextmanager
    def stream(self, stream_id: int):
        """Scope operator launches to a non-default CUDA stream."""
        self._stream_override.setdefault(self._current_thread, []).append(stream_id)
        try:
            yield self
        finally:
            self._stream_override[self._current_thread].pop()

    def synchronize(self) -> float:
        """Device synchronisation: all CPU threads wait for the GPU to drain."""
        ready = max(
            self.gpu.device_ready_time(),
            max(self._cpu_clock.values(), default=0.0),
        )
        for thread in self._cpu_clock:
            self._cpu_clock[thread] = ready
        return ready

    # ------------------------------------------------------------------
    # Operator dispatch
    # ------------------------------------------------------------------
    def call(self, op_name: str, *args, stream: Optional[int] = None, **kwargs):
        """Invoke an operator by qualified name.

        Returns whatever the operator implementation returns (a tensor, a
        tuple of tensors, a :class:`~repro.torchsim.distributed.Work`
        handle, or ``None``).
        """
        op_def = self.registry.get(op_name)
        thread = self._current_thread
        stack = self._call_stack.setdefault(thread, [])
        nested = any(not frame.is_annotation for frame in stack)

        node_id = self.take_node_id()
        parent_id = stack[-1].node_id if stack else 0
        dispatch = self.spec.dispatch_overhead_us * (_NESTED_DISPATCH_FACTOR if nested else 1.0)
        start_ts = self.now(thread)
        self.advance_cpu(dispatch, thread)

        frame = _Frame(
            node_id=node_id,
            name=op_name,
            category=op_def.category,
            start_ts=start_ts,
            thread=thread,
        )
        stack.append(frame)
        stream_ctx = self.stream(stream) if stream is not None else None
        if stream_ctx is not None:
            stream_ctx.__enter__()
        try:
            result = op_def.fn(OpContext(self, frame), *args, **kwargs)
        finally:
            if stream_ctx is not None:
                stream_ctx.__exit__(None, None, None)
            stack.pop()
        end_ts = self.now(thread)

        outputs = _normalize_outputs(result)
        if self.observer is not None and self.observer.enabled:
            self.observer.record_node(
                name=op_name,
                node_id=node_id,
                parent_id=parent_id,
                op_schema=op_def.schema_str,
                inputs=_flatten_args(args, kwargs),
                outputs=outputs,
                attrs={"tid": thread, "category": op_def.category.value, "rank": self.rank},
            )
        if self.profiler is not None and self.profiler.enabled:
            self.profiler.record_cpu_op(
                TraceEvent(
                    name=op_name,
                    cat="cpu_op",
                    ts=start_ts,
                    dur=end_ts - start_ts,
                    tid=thread,
                    pid=self.rank,
                    op_node_id=node_id,
                )
            )
        return result

    @contextmanager
    def record_function(self, name: str):
        """Annotation scope, mirroring ``torch.profiler.record_function``.

        The annotation becomes the parent of every operator issued inside
        the scope — this is how users label subtraces for selective replay
        (Section 7.1) and how autograd wrapper nodes appear in the trace.
        """
        thread = self._current_thread
        stack = self._call_stack.setdefault(thread, [])
        node_id = self.take_node_id()
        parent_id = stack[-1].node_id if stack else 0
        start_ts = self.now(thread)
        self.advance_cpu(_ANNOTATION_OVERHEAD_US, thread)
        frame = _Frame(
            node_id=node_id,
            name=name,
            category=OpCategory.ATEN,
            start_ts=start_ts,
            thread=thread,
            is_annotation=True,
        )
        stack.append(frame)
        try:
            yield frame
        finally:
            stack.pop()
            end_ts = self.now(thread)
            if self.observer is not None and self.observer.enabled:
                self.observer.record_node(
                    name=name,
                    node_id=node_id,
                    parent_id=parent_id,
                    op_schema="",
                    inputs=[],
                    outputs=[],
                    attrs={"tid": thread, "annotation": True, "rank": self.rank},
                )
            if self.profiler is not None and self.profiler.enabled:
                self.profiler.record_cpu_op(
                    TraceEvent(
                        name=name,
                        cat="user_annotation",
                        ts=start_ts,
                        dur=end_ts - start_ts,
                        tid=thread,
                        pid=self.rank,
                        op_node_id=node_id,
                    )
                )

    # ------------------------------------------------------------------
    # Kernel launching
    # ------------------------------------------------------------------
    def launch_kernel(
        self,
        desc: KernelDesc,
        stream_id: Optional[int] = None,
        duration_us: Optional[float] = None,
        blocking: bool = False,
        frame: Optional[_Frame] = None,
        start_not_before: Optional[float] = None,
    ) -> KernelLaunch:
        """Enqueue one kernel on a stream and resolve its timing.

        ``start_not_before`` models a cross-stream data dependency: the
        kernel cannot start before that timestamp even if its own stream is
        idle (e.g. a collective waiting for the compute stream to produce
        its input tensor).
        """
        thread = self._current_thread
        self.advance_cpu(self.spec.kernel_launch_overhead_us, thread)
        launch_ts = self.now(thread)
        if start_not_before is not None:
            launch_ts = max(launch_ts, start_not_before)
        resolved_stream = stream_id if stream_id is not None else self.current_stream
        duration = duration_us if duration_us is not None else self.cost_model.duration_us(desc)
        launch = KernelLaunch(
            desc=desc,
            stream_id=resolved_stream,
            launch_ts=launch_ts,
            duration=duration,
            op_node_id=frame.node_id if frame is not None else 0,
            op_name=frame.name if frame is not None else desc.name,
            category=frame.category if frame is not None else OpCategory.ATEN,
            device_index=self.rank,
            correlation_id=self.take_correlation_id(),
        )
        self.gpu.add_launch(launch)
        if self.profiler is not None and self.profiler.enabled:
            self.profiler.record_kernel(
                TraceEvent(
                    name=desc.name,
                    cat="kernel",
                    ts=launch.start if launch.start is not None else launch_ts,
                    dur=launch.duration,
                    tid="gpu",
                    pid=self.rank,
                    stream=resolved_stream,
                    op_node_id=launch.op_node_id,
                    correlation=launch.correlation_id,
                    args={"kind": desc.kind.value, "category": launch.category.value},
                )
            )
        if blocking and launch.end is not None:
            self.block_until(launch.end, thread)
        return launch

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def timeline_stats(self, window_start: float = 0.0, window_end: Optional[float] = None) -> TimelineStats:
        return self.gpu.stats(window_start=window_start, window_end=window_end)


# ----------------------------------------------------------------------
def _normalize_outputs(result: Any) -> List[Any]:
    if result is None:
        return []
    if isinstance(result, Work):
        return []
    if isinstance(result, tuple):
        return list(result)
    if isinstance(result, list):
        return [result]
    return [result]


def _flatten_args(args: Sequence[Any], kwargs: Dict[str, Any]) -> List[Any]:
    flat = list(args)
    for key in sorted(kwargs):
        flat.append(kwargs[key])
    return flat
