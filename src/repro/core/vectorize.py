"""Vectorized operator replay — the :class:`ExecuteStage` fast path.

The scalar execute loop interprets one operator at a time: schema-compiled
callable → runtime dispatch → per-kernel cost-model pricing, all in pure
Python.  Profiling (``repro.telemetry.ProfileHook``) shows that for a
converged replay every iteration repeats *exactly* the same operator
programs — same inputs, same kernels, same durations — so re-interpreting
them is wasted work.

This module groups operators Chakra-style by an *operator signature*
``(reconstructed IR, stream, input tensor fingerprints)`` and captures, on
the first occurrence of each signature, the operator's complete effect on
the runtime as an :class:`OpProgram`:

* how far it advances the issuing CPU thread's clock,
* how many execution-trace node IDs it consumes,
* the kernels it launches (descriptor, launch-time offset, stream) and the
  profiler events it records.

A program stores no kernel durations.  Capture checks that each kernel
lasted exactly the cost model's price for its descriptor at the capture
clock (:meth:`~repro.hardware.costmodel.KernelCostModel.duration_us`; a
program with any other duration dies), and a replay at any clock prices
the program's kernels once per clock through that same function
(:func:`_priced`).  So one program serves every power cap of a sweep:
capture the workload graph once, price it per system configuration.

The second occurrence is replayed scalar again and compared field-for-field
against the stored program, durations aside; only on an exact match is the
program *verified*.  From then on the signature replays through
:meth:`VectorizedExecutor._fast_replay`, which reproduces the captured
effect — same node IDs, same correlation IDs, same launch timestamps, same
profiler events — without touching the operator registry, and reads its
kernel durations from the binding.  Anything that fails capture or
verification (value-dependent ops, comms, clock-reading internals) is bound
to the scalar path forever, so correctness never depends on the fast path
applying.

The process keeps one program table per *program environment*
(:func:`program_environment`: device spec, cost-model mode and efficiency
tables, operator registry and its generation — never the rank or the
clock), module state behind :func:`partition`, :func:`publish`,
:func:`settle` and :func:`clear`.  A capture is published at once as an
unverified *candidate*, and the next occurrence of its signature — later in
the same replay, on another rank of a co-replay, or in any later replay of
the environment at any clock, on any thread — verifies it.  So a replay
whose content and environment were seen before captures nothing, and a
signature that occurs once per replay settles on the second replay.

A program is keyed on content (IR text, stream, tensor shape, dtype and
payload digest), so a program verified once stays valid for every later
replay of its environment.  Verification does not prove a program
rank- or clock-independent — its second occurrence is often on the
capturing rank and at the capturing clock — so sharing rests on which
operators a program dispatches:

* Built-in operators (implemented in ``repro.torchsim.ops``) read neither
  the rank nor the clock, and launch every kernel at the cost model's
  price; only the comms operators do otherwise, and they are never
  vectorized.  ``scripts/check_deprecated_usage.py`` pins that with its
  ``rank-dependent-op`` rule.  Their programs are shared by every rank and
  every clock.
* Any other implementation — a user op from
  ``ReplaySupport.register_custom_op`` or an overridden built-in — may read
  ``ctx.runtime.rank`` or the clock (``ctx.runtime.cost_model``).  A
  top-level one gets the rank and the clock scale in its signature, so each
  rank captures and verifies its own program at each clock; a built-in that
  dispatches one is bound to the scalar path.

The node *bindings* (node id → verified program, or scalar-forever) are
the executor's record of what it learned, so a rank that finds a node bound
skips its signature.  A single replay keeps them private.  The ranks of
one co-replay fleet plan (same trace content, config and profiler trace;
:class:`~repro.cluster.plan.FleetPlan`) share one table when
:func:`shared_bindings` allows it: the first rank to verify a node binds
it for the plan, and every other rank replays it on the fast path at its
first occurrence.

Equivalence contract: with ``ReplayConfig.vectorized=True`` (the default)
every replay product — iteration times, timeline stats, kernel launches,
profiler traces, cached result digests, cluster reports — is
byte-identical to ``vectorized=False``.
``tests/test_vectorized_equivalence.py`` asserts this property over
randomized workloads and multi-rank fleets.

Operators that are *not* eligible, and why:

* ``comms`` category — collectives use ``start_not_before`` (cross-stream
  data dependencies), ``blocking=True`` launches and explicit durations
  from the interconnect model, all of which read global timeline state, so
  their effect is not a pure function of the operator's start time.
* operators whose outputs include async :class:`~repro.torchsim.distributed.Work`
  handles (same reason).
* operators that switch CPU threads mid-call or whose second occurrence
  diverges from the first in any captured field.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.tensors import payload_token
from repro.torchsim.distributed import Work, retry_collective
from repro.torchsim.kernel import KernelLaunch
from repro.torchsim.profiler import Profiler, TraceEvent
from repro.torchsim.runtime import Runtime
from repro.torchsim.tensor import Tensor

#: Key under which a replay's executor lives in ``context.extras``.
EXTRAS_KEY = "vectorized_executor"

#: Module prefix of the built-in operators, and their one module that reads
#: the rank (see :func:`_rank_blind`).
_BUILTIN_OPS = "repro.torchsim.ops."
_COMMS_OPS = "repro.torchsim.ops.comms"

#: Sentinel distinguishing "node never seen" from "node bound to scalar".
_UNSEEN = object()

#: Program lifecycle states; a verified or dead program is *settled*.
_UNVERIFIED = "unverified"
_VERIFIED = "verified"
_DEAD = "dead"

#: Most program environments the process retains; the least recently
#: replayed one is forgotten beyond it.  The clock is not part of an
#: environment, so a power sweep stays in one; a process that replays on
#: many devices, cost-model modes or operator registries (each
#: ``OperatorRegistry`` object, and each in-place override, is its own)
#: would otherwise keep every one it ever served resident.
MAX_ENVIRONMENTS = 8
#: Most programs one environment retains, candidates included; the earliest
#: published is forgotten beyond it.  A safety bound for one environment
#: fed many distinct traces: a replay of a benchmark model publishes 11 to
#: 45 programs, which hold 2.0 to 3.3 KiB each on average (tracemalloc,
#: memory freed by :func:`clear`: PARAM-linear, RM, DDP-RM and the 8-rank
#: fleet), so a full table stays near 8 x 256 x 3.3 KiB = 6.6 MiB.
MAX_PROGRAMS = 256
#: Most clocks one program keeps its kernels priced at; the earliest priced
#: is forgotten beyond it.  A daemon sweep may send every job at a fresh
#: power cap, and each costs only its one pricing per program.
MAX_CLOCKS = 8


class _DataFingerprintCache:
    """Content fingerprints for tensor payloads, cached by array identity.

    Embedding-lookup cost depends on index *values* (Section 4.4), so a
    tensor's payload must be part of its signature.  Hashing the payload on
    every occurrence would dominate the fast path; instead the digest is
    cached under ``id(array)`` with the array object pinned in the cache so
    the id cannot be recycled while the entry lives.  A generated index
    array brings the token the process computed for it once
    (:func:`~repro.core.tensors.payload_token`), so a replay whose inputs
    an earlier replay generated hashes nothing.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, Tuple[np.ndarray, str]] = {}

    def token(self, array: np.ndarray) -> str:
        key = id(array)
        hit = self._by_id.get(key)
        if hit is not None and hit[0] is array:
            return hit[1]
        digest = payload_token(array)
        self._by_id[key] = (array, digest)
        return digest


@dataclass
class OpProgram:
    """The captured runtime effect of one operator signature.

    ``increments`` is the exact sequence of ``advance_cpu`` deltas the
    operator applied to its thread's clock.  Replaying them one addition at
    a time regenerates the operator's *clock-value trace* ``values[i]``
    (``values[0]`` = the op's start time, ``values[i]`` = the clock after
    the i-th advance) with every intermediate float bit-identical to the
    scalar path.  Kernel launch timestamps and profiler-event spans are
    stored as indices into that trace, never as offsets — floating-point
    addition is not associative, so offsets would drift in the last bits.

    ``kernels`` holds one ``(desc, ts_index, stream_id, node_offset,
    op_name, category)`` tuple per launch, in launch order: ``ts_index``
    points into the clock-value trace (the launch's CPU-side timestamp).
    No duration: ``priced`` maps a clock scale to the same kernels with the
    cost model's duration at that clock inserted after ``ts_index`` — the
    launch tuples the fast path reads (:func:`_priced`).

    ``events`` stores the profiler events the scalar path would record, in
    recording order: ``("k", kernel_index)`` entries reference a kernel
    (replayed with live timestamps/correlations), ``("c", name, cat,
    ts_index, end_index, tid, node_offset)`` entries are CPU-side spans
    whose start/end are clock-trace values.

    Once published (:func:`publish`), a program is shared by every replay
    of its environment: its ``state`` changes once (:func:`settle`), and
    ``priced`` gains a clock at most once per clock.
    """

    signature: Any
    op_name: str
    thread: str
    node_count: int
    increments: List[float]
    kernels: List[tuple]
    events: List[tuple]
    outputs: Any
    state: str = _UNVERIFIED
    priced: Dict[float, Tuple[tuple, ...]] = field(default_factory=dict)

    def matches(self, other: "OpProgram") -> bool:
        """Field-for-field equality of two captures of the same signature,
        at any two clocks (neither stores a duration)."""
        return (
            self.node_count == other.node_count
            and self.increments == other.increments
            and self.thread == other.thread
            and self.kernels == other.kernels
            and self.events == other.events
        )


class _FastBinding:
    """A node bound to a verified program, plus its precomputed output
    registrations and its kernels priced at the replay's clock — everything
    the hot loop needs without re-decoding."""

    __slots__ = ("program", "pairs", "kernels")

    def __init__(self, program: OpProgram, pairs: List[tuple], kernels: tuple) -> None:
        self.program = program
        self.pairs = pairs
        self.kernels = kernels


def program_environment(runtime: Runtime) -> tuple:
    """Everything besides its signature that a compute operator's captured
    effect depends on: the device (dispatch and launch overheads, SM
    count), the kernel cost model (mode, efficiency tables) and the
    operator registry that dispatches it, with its generation — a registry
    overridden in place (``register(..., overwrite=True)``) is a new
    environment.  The rank and the clock are deliberately not part of it:
    a program prices its kernels per clock (:func:`_priced`) — see the
    module docstring."""
    cost = runtime.cost_model
    registry = runtime.registry
    return (
        runtime.spec,
        cost.spec,
        cost.mode,
        frozenset(cost.compute_efficiency.items()),
        frozenset(cost.memory_efficiency.items()),
        registry,
        registry.generation,
    )


def _module(op_def) -> str:
    return getattr(op_def.fn, "__module__", None) or ""


def _rank_blind(registry, op_name: str) -> bool:
    """True when ``op_name`` dispatches to a built-in compute operator,
    whose effect the ``rank-dependent-op`` lint rule keeps independent of
    the rank; user and overridden implementations may read it."""
    if not registry.has(op_name):
        return False
    module = _module(registry.get(op_name))
    return module.startswith(_BUILTIN_OPS) and module != _COMMS_OPS


def shared_bindings(registry) -> Optional[Dict[int, Any]]:
    """A node-binding table the ranks of one fleet plan can share, or
    ``None`` when each rank must learn its bindings alone.

    A rank that finds a node bound replays it without computing its
    signature, which is sound only while the node's inputs — and so its
    signature — are the same on every rank of the plan.  Built-in
    operators keep them so: compute ops do not read the rank, and the comms
    ops hand back their input tensors.  Any other implementation in
    ``registry`` may hand rank-dependent outputs to the ops downstream of
    it, so then every rank binds its nodes itself, as a lone replay does.
    """
    if all(_module(op_def).startswith(_BUILTIN_OPS) for op_def in registry):
        return {}
    return None


# ----------------------------------------------------------------------
# The process's program table
# ----------------------------------------------------------------------
#: Guards :data:`_partitions` and every program's ``state`` transition.
_lock = threading.Lock()
#: environment → (signature → :class:`OpProgram`), least recently replayed
#: environment first.
_partitions: "OrderedDict[tuple, Dict[Any, OpProgram]]" = OrderedDict()


def partition(environment: tuple) -> Dict[Any, OpProgram]:
    """The program table of ``environment``, created empty if the process
    has none, now its most recently replayed one.

    Every replay of the environment — any rank, any job, any thread —
    learns into this one table (a program of a non-built-in operator keys
    on its rank too — see the module docstring).  Retention is bounded by
    constants, not by a setting: at most :data:`MAX_ENVIRONMENTS` tables
    (least recently replayed evicted) of at most :data:`MAX_PROGRAMS`
    programs each (earliest published evicted).  An executor keeps the
    table it was handed even if it is evicted meanwhile, so eviction never
    disturbs a running replay.  Read it only: programs are added through
    :func:`publish` and settled through :func:`settle`.
    """
    with _lock:
        programs = _partitions.get(environment)
        if programs is None:
            programs = _partitions[environment] = {}
            if len(_partitions) > MAX_ENVIRONMENTS:
                _partitions.popitem(last=False)
        else:
            _partitions.move_to_end(environment)
        return programs


def publish(programs: Dict[Any, OpProgram], program: OpProgram) -> OpProgram:
    """Add ``program`` to the table ``programs`` unless a concurrent replay
    published its signature first; return the program the table holds.

    A published program never changes again except for its ``state``
    (:func:`settle`), so a replay reads the table without the lock: a
    single dict lookup is atomic and every field it can see is final.
    """
    with _lock:
        held = programs.get(program.signature)
        if held is not None:
            return held
        if len(programs) >= MAX_PROGRAMS:
            del programs[next(iter(programs))]
        programs[program.signature] = program
        return program


def settle(program: OpProgram, state: str) -> bool:
    """Move an unverified ``program`` to ``state`` (verified or dead);
    ``False`` when another replay settled it first, whose state stands."""
    with _lock:
        if program.state != _UNVERIFIED:
            return False
        program.state = state
        return True


def table_stats() -> Dict[str, int]:
    """Environments the program table holds, and their programs (any
    state)."""
    with _lock:
        return {
            "environments": len(_partitions),
            "programs": sum(len(programs) for programs in _partitions.values()),
        }


def clear() -> None:
    """Forget every program (the next replay learns cold)."""
    with _lock:
        _partitions.clear()


def _priced(program: OpProgram, cost) -> Tuple[tuple, ...]:
    """``program``'s kernels as ``(desc, ts_index, duration, stream_id,
    node_offset, op_name, category)`` launch tuples, each duration priced
    by ``cost`` (a :class:`~repro.hardware.costmodel.KernelCostModel`).

    The environment fixes every field of the cost model but its clock, so
    the result is cached on the program per clock scale — at most
    :data:`MAX_CLOCKS` of them, earliest priced evicted — and a program is
    priced once per clock, not on every bind or fast replay.  Concurrent
    pricings of one clock compute equal tuples, so either may stay.
    """
    clock = cost.clock_scale
    kernels = program.priced.get(clock)
    if kernels is None:
        kernels = tuple(
            (desc, ts_index, cost.duration_us(desc), stream_id, node_offset, op_name, category)
            for desc, ts_index, stream_id, node_offset, op_name, category in program.kernels
        )
        with _lock:
            if clock not in program.priced and len(program.priced) >= MAX_CLOCKS:
                del program.priced[next(iter(program.priced))]
            program.priced[clock] = kernels
    return kernels


class VectorizedExecutor:
    """One replay's state of the vectorized execute loop.

    Lives on its :class:`~repro.core.pipeline.ReplayContext` (in
    ``context.extras``), so the fingerprint cache and :attr:`stats` are per
    replay (per rank in a co-replay).  It learns into the process's table
    for its environment (:func:`partition`), which every other replay of
    the environment shares.  ``bindings`` is the node-binding table of the
    replay's fleet plan (:func:`shared_bindings`); ``None`` gives the
    executor its own.
    """

    def __init__(self, runtime: Runtime, bindings: Optional[Dict[int, Any]] = None) -> None:
        #: signature → program of this replay's environment (any state).
        self._programs = partition(program_environment(runtime))
        #: node id → :class:`_FastBinding` (verified), an unverified
        #: :class:`OpProgram`, or ``None`` for scalar-forever.
        self._bindings: Dict[int, Any] = {} if bindings is None else bindings
        self._fingerprints = _DataFingerprintCache()
        #: Counters for tests and the profiling report: how many per-op
        #: replays took which path across all iterations so far.
        self.stats: Dict[str, int] = {
            "fast_ops": 0,
            "scalar_ops": 0,
            "programs_captured": 0,
            "programs_verified": 0,
            "programs_dead": 0,
            # Nodes bound to a program the table already held verified.
            "programs_reused": 0,
        }

    # ------------------------------------------------------------------
    # The replacement for ExecuteStage's scalar loop
    # ------------------------------------------------------------------
    def replay_entries(self, context, runtime: Runtime):
        """Replay every selected operator once; mirrors the scalar loop.

        A generator like the scalar loop: it yields only while a collective
        is blocked on its rendezvous (see
        :func:`~repro.torchsim.distributed.retry_collective`) and returns
        ``(replayed, skipped)``.  Compute ops never reach the rendezvous,
        so the learning and fast paths need no retry.
        """
        replayed = 0
        skipped = 0
        observers = context.op_observers()
        tensor_manager = context.tensor_manager
        stream_assignment = context.stream_assignment
        use_streams = context.config.use_streams
        default_stream = stream_assignment.default_stream
        reconstructed_map = context.reconstructed
        bindings = self._bindings
        stats = self.stats

        fast_ops = 0
        scalar_ops = 0
        tensor_manager.reset_intermediates()
        for entry in context.selection.entries:
            if not entry.supported:
                skipped += 1
                continue
            node_id = entry.node.id
            binding = bindings.get(node_id, _UNSEEN)

            # Hot path: node bound to a verified program.
            if binding.__class__ is _FastBinding:
                result = self._fast_replay(runtime, binding)
                tensor_manager.register_pairs(binding.pairs)
                replayed += 1
                fast_ops += 1
                if observers:
                    context.emit_op_replayed(observers, entry, result)
                continue
            if binding is not None and binding is not _UNSEEN:
                if binding.state == _DEAD:
                    bindings[node_id] = None
                    binding = None
                # _UNVERIFIED falls through to the learning path below.

            reconstructed = reconstructed_map.get(node_id)
            if reconstructed is None:
                skipped += 1
                continue
            tensors = tensor_manager.gather_inputs(entry.node)
            stream = (
                stream_assignment.stream_for(node_id) if use_streams else default_stream
            )

            if entry.category == "comms":
                if binding is not None:  # first comms occurrence: bind scalar
                    bindings[node_id] = None
                result = yield from retry_collective(
                    runtime, reconstructed.function, runtime, *tensors, stream=stream
                )
                scalar_ops += 1
            elif binding is None:
                result = reconstructed.function(runtime, *tensors, stream=stream)
                scalar_ops += 1
            else:
                result = self._learn(
                    runtime, tensor_manager, entry, reconstructed, tensors, stream
                )
            tensor_manager.register_outputs(entry.node, result)
            replayed += 1
            if observers:
                context.emit_op_replayed(observers, entry, result)
        stats["fast_ops"] += fast_ops
        stats["scalar_ops"] += scalar_ops
        return replayed, skipped

    # ------------------------------------------------------------------
    # Learning: signature → capture → verify
    # ------------------------------------------------------------------
    def _learn(
        self,
        runtime: Runtime,
        tensor_manager,
        entry,
        reconstructed,
        tensors: Sequence[Any],
        stream: int,
    ) -> Any:
        """Scalar-replay one occurrence while advancing its program's state."""
        node = entry.node
        node_id = node.id
        signature = self._signature(reconstructed, stream, tensors)
        if signature is None:
            # Inputs we cannot fingerprint — never vectorize this node.
            self._bindings[node_id] = None
            self.stats["scalar_ops"] += 1
            return reconstructed.function(runtime, *tensors, stream=stream)
        rank_blind = _rank_blind(runtime.registry, reconstructed.op_name)
        if not rank_blind:
            # Its effect may depend on the rank or the clock: learn it for
            # this rank at this clock only.
            signature = (signature, runtime.rank, runtime.cost_model.clock_scale)

        program = self._programs.get(signature)
        if program is not None and program.state == _VERIFIED:
            binding = self._bind_fast(runtime, tensor_manager, node, program)
            self.stats["fast_ops"] += 1
            self.stats["programs_reused"] += 1
            return self._fast_replay(runtime, binding)
        if program is not None and program.state == _DEAD:
            self._bindings[node_id] = None
            self.stats["scalar_ops"] += 1
            return reconstructed.function(runtime, *tensors, stream=stream)

        capture, result = self._capture(
            runtime, signature, reconstructed, tensors, stream, rank_blind
        )
        self.stats["scalar_ops"] += 1
        if capture is None:
            # Not capturable (thread switch, Work outputs, inconsistent IDs,
            # a dispatched op that may read the rank).
            if program is None:
                program = publish(
                    self._programs,
                    OpProgram(
                        signature=signature,
                        op_name=reconstructed.op_name,
                        thread="",
                        node_count=0,
                        increments=[],
                        kernels=[],
                        events=[],
                        outputs=None,
                        state=_DEAD,
                    ),
                )
            settle(program, _DEAD)
            self._bindings[node_id] = None
            self.stats["programs_dead"] += 1
            return result

        if program is None:
            program = publish(self._programs, capture)
            if program is capture:
                # First occurrence: the capture is the candidate, awaiting
                # verification.
                self._bindings[node_id] = capture
                self.stats["programs_captured"] += 1
                return result

        # A later occurrence — in this replay, on another rank, or in a
        # later replay of the environment — verifies the candidate against
        # a fresh capture.  Any divergence kills the signature for every
        # replay of the environment.  The first replay to settle it wins;
        # this one binds the fast path only if its own capture matched too.
        matched = program.matches(capture)
        if settle(program, _VERIFIED if matched else _DEAD):
            self.stats["programs_verified" if matched else "programs_dead"] += 1
        if matched and program.state == _VERIFIED:
            self._bind_fast(runtime, tensor_manager, node, program)
        else:
            self._bindings[node_id] = None
        return result

    def _bind_fast(
        self, runtime: Runtime, tensor_manager, node, program: OpProgram
    ) -> _FastBinding:
        """Bind a node to a verified program, priced at the replay's clock,
        for all later iterations."""
        binding = self._bindings[node.id] = _FastBinding(
            program,
            tensor_manager.output_pairs(node, program.outputs),
            _priced(program, runtime.cost_model),
        )
        return binding

    def _capture(
        self,
        runtime: Runtime,
        signature: Any,
        reconstructed,
        tensors: Sequence[Any],
        stream: int,
        rank_blind: bool,
    ) -> Tuple[Optional[OpProgram], Any]:
        """Run one scalar occurrence, recording its effect on the runtime.

        Returns ``(program, result)``; ``program`` is ``None`` when the
        operator's effect cannot be replayed from a template, when a kernel
        did not last the cost model's price at the capture clock, or when a
        ``rank_blind`` (shared by every rank) operator dispatched one that
        may read the rank.  The operator's side effects (clock, kernels,
        profiler events) are real — capture observes, it never replays.
        """
        thread = runtime.current_thread
        clocks_before = runtime.cpu_clocks()
        start = runtime.now(thread)
        node_base = runtime.node_cursor
        correlation_base = runtime.correlation_cursor
        launch_base = runtime.gpu.launch_count

        # Record the exact clock arithmetic: every advance_cpu delta on the
        # issuing thread, in order.  block_until (and any advance on another
        # thread) makes the clock depend on global state, which a template
        # cannot reproduce — either invalidates the capture.
        increments: List[float] = []
        tainted = [False]

        def recording_advance(microseconds, thread_name=None, _rt=runtime):
            name = thread_name or _rt.current_thread
            if name == thread:
                increments.append(microseconds)
            else:
                tainted[0] = True
            return Runtime.advance_cpu(_rt, microseconds, thread_name)

        def recording_block_until(timestamp, thread_name=None, _rt=runtime):
            tainted[0] = True
            return Runtime.block_until(_rt, timestamp, thread_name)

        # Swap in an always-on capture profiler so event templates exist
        # even during warm-up (when the real profiler is stopped).  Captured
        # events are re-emitted to the real profiler afterwards, preserving
        # exactly what the scalar path would have recorded.
        real_profiler = runtime.profiler
        capture_profiler = Profiler()
        capture_profiler.start()
        runtime.profiler = capture_profiler
        runtime.advance_cpu = recording_advance  # type: ignore[method-assign]
        runtime.block_until = recording_block_until  # type: ignore[method-assign]
        try:
            result = reconstructed.function(runtime, *tensors, stream=stream)
        finally:
            del runtime.advance_cpu
            del runtime.block_until
            runtime.profiler = real_profiler
        if real_profiler is not None and real_profiler.enabled:
            for event in capture_profiler.trace.events:
                if event.cat == "kernel":
                    real_profiler.record_kernel(event)
                else:
                    real_profiler.record_cpu_op(event)

        launches = runtime.gpu.launches_since(launch_base)
        node_count = runtime.node_cursor - node_base
        correlation_count = runtime.correlation_cursor - correlation_base

        # Reconstruct the clock-value trace the recorded increments imply
        # and check it accounts for the thread's final clock exactly.
        values = [start]
        value = start
        for increment in increments:
            value = value + increment
            values.append(value)

        if tainted[0] or not self._capture_is_replayable(
            runtime, thread, clocks_before, result, launches,
            node_base, node_count, correlation_count, values, increments,
        ):
            return None, result
        if rank_blind and not all(
            _rank_blind(runtime.registry, event.name)
            for event in capture_profiler.trace.events
            if event.cat == "cpu_op"
        ):
            return None, result

        # A program stores no durations, so each must be the one the cost
        # model prices, as it will at every clock the program replays at.
        kernels: List[tuple] = []
        for launch in launches:
            ts_index = _value_index(values, launch.launch_ts)
            if ts_index < 0 or launch.duration != runtime.cost_model.duration_us(launch.desc):
                return None, result
            kernels.append(
                (
                    launch.desc,
                    ts_index,
                    launch.stream_id,
                    launch.op_node_id - node_base,
                    launch.op_name,
                    launch.category,
                )
            )

        events: List[tuple] = []
        for event in capture_profiler.trace.events:
            if event.cat == "kernel":
                index = event.correlation - correlation_base
                if not 0 <= index < len(launches):
                    return None, result
                events.append(("k", index))
            else:
                ts_index = _value_index(values, event.ts)
                end_index = _span_end_index(values, ts_index, event.dur)
                if ts_index < 0 or end_index < 0:
                    return None, result
                events.append(
                    (
                        "c",
                        event.name,
                        event.cat,
                        ts_index,
                        end_index,
                        event.tid,
                        event.op_node_id - node_base,
                    )
                )

        program = OpProgram(
            signature=signature,
            op_name=reconstructed.op_name,
            thread=thread,
            node_count=node_count,
            increments=increments,
            kernels=kernels,
            events=events,
            outputs=result,
        )
        return program, result

    @staticmethod
    def _capture_is_replayable(
        runtime: Runtime,
        thread: str,
        clocks_before: Dict[str, float],
        result: Any,
        launches: Sequence[KernelLaunch],
        node_base: int,
        node_count: int,
        correlation_count: int,
        values: Sequence[float],
        increments: Sequence[float],
    ) -> bool:
        """Whether a captured occurrence is a pure function of its start time."""
        if node_count < 1:
            return False
        if correlation_count != len(launches):
            return False
        if runtime.current_thread != thread:
            return False
        # The recorded increments must fully explain the clock movement
        # (monotonically, so trace-value matching is unambiguous).
        if runtime.now(thread) != values[-1]:
            return False
        if any(increment < 0 for increment in increments):
            return False
        # The operator must not have touched any other CPU thread's clock
        # (a runtime.thread() switch would); new threads count as touched.
        clocks_after = runtime.cpu_clocks()
        for name, clock in clocks_after.items():
            if name == thread:
                continue
            if clocks_before.get(name) != clock:
                return False
        # Async work handles tie the result to the live timeline.
        outputs = result if isinstance(result, (list, tuple)) else [result]
        if any(isinstance(item, Work) for item in outputs):
            return False
        for launch in launches:
            if not launch.resolved:
                return False
            if not node_base <= launch.op_node_id < node_base + node_count:
                return False
        return True

    # ------------------------------------------------------------------
    # The fast path
    # ------------------------------------------------------------------
    def _fast_replay(self, runtime: Runtime, binding: _FastBinding) -> Any:
        """Reproduce a verified program's effect without dispatching it."""
        program = binding.program
        thread = runtime.current_thread
        start = runtime.now(thread)
        # Regenerate the clock-value trace with the captured increments —
        # the same additions in the same order the scalar dispatch would
        # perform, so every timestamp below is bit-identical to it.
        values = [start]
        value = start
        for increment in program.increments:
            value = value + increment
            values.append(value)
        node_base = runtime.reserve_node_ids(program.node_count)
        gpu = runtime.gpu
        rank = runtime.rank
        launches: List[KernelLaunch] = []
        for desc, ts_index, duration, stream_id, node_offset, op_name, category in binding.kernels:
            launch = KernelLaunch(
                desc=desc,
                stream_id=stream_id,
                launch_ts=values[ts_index],
                duration=duration,
                op_node_id=node_base + node_offset,
                op_name=op_name,
                category=category,
                device_index=rank,
                correlation_id=runtime.take_correlation_id(),
            )
            gpu.add_launch(launch)
            launches.append(launch)
        runtime.block_until(values[-1], thread)

        profiler = runtime.profiler
        if profiler is not None and profiler.enabled:
            for event in program.events:
                if event[0] == "k":
                    launch = launches[event[1]]
                    desc = launch.desc
                    profiler.record_kernel(
                        TraceEvent(
                            name=desc.name,
                            cat="kernel",
                            ts=launch.start,
                            dur=launch.duration,
                            tid="gpu",
                            pid=rank,
                            stream=launch.stream_id,
                            op_node_id=launch.op_node_id,
                            correlation=launch.correlation_id,
                            args={
                                "kind": desc.kind.value,
                                "category": launch.category.value,
                            },
                        )
                    )
                else:
                    _, name, cat, ts_index, end_index, tid, node_offset = event
                    ts = values[ts_index]
                    profiler.record_cpu_op(
                        TraceEvent(
                            name=name,
                            cat=cat,
                            ts=ts,
                            dur=values[end_index] - ts,
                            tid=tid,
                            pid=rank,
                            op_node_id=node_base + node_offset,
                        )
                    )
        return program.outputs

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    def _signature(
        self, reconstructed, stream: int, tensors: Sequence[Any]
    ) -> Optional[Any]:
        """Grouping key for one occurrence, or ``None`` if unfingerprintable.

        The reconstructed IR text already encodes the operator name and
        every recorded non-tensor constant, so together with the dispatch
        stream and the input tensor fingerprints (shape, dtype, device,
        payload content) it pins down everything the operator's simulated
        cost can depend on.
        """
        fingerprints: List[Any] = []
        for value in tensors:
            if isinstance(value, Tensor):
                fingerprints.append(self._tensor_fingerprint(value))
            elif isinstance(value, list) and all(
                isinstance(item, Tensor) for item in value
            ):
                fingerprints.append(
                    ("L", tuple(self._tensor_fingerprint(item) for item in value))
                )
            else:
                return None
        return (reconstructed.ir_text, stream, tuple(fingerprints))

    def _tensor_fingerprint(self, tensor: Tensor) -> tuple:
        token = (
            self._fingerprints.token(tensor.data) if tensor.data is not None else None
        )
        return (
            "T",
            tensor.shape,
            tensor.dtype,
            str(tensor.device),
            tensor.requires_grad,
            token,
        )


# ----------------------------------------------------------------------
def _value_index(values: Sequence[float], value: float) -> int:
    """Index of ``value`` in a clock-value trace, or -1.

    Traces are non-decreasing (validated), so when equal values repeat the
    increments between them are exactly 0.0 and any matching index replays
    to the same float; the first match is canonical.
    """
    for index, candidate in enumerate(values):
        if candidate == value:
            return index
    return -1


def _span_end_index(values: Sequence[float], ts_index: int, dur: float) -> int:
    """Index whose trace value ends a span of ``dur`` starting at ``ts_index``.

    Matches the scalar path's own arithmetic (``dur = end - start`` over two
    clock reads), so the replayed duration is recomputed from trace values
    rather than trusted as a stored float.
    """
    if ts_index < 0:
        return -1
    start = values[ts_index]
    for index in range(ts_index, len(values)):
        if values[index] - start == dur:
            return index
    return -1

