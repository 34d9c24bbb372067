"""Execution-trace analysis.

The ET analyzer of Figure 3 sits between trace collection and replay: it
computes statistics over captured traces (operator-category breakdowns such
as Figure 2, per-operator histograms) and selects which traces from a fleet
trace database to turn into benchmarks (population-weight selection,
Section 8.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.et.schema import ETNode
from repro.et.trace import ExecutionTrace
from repro.torchsim.dtypes import DType

#: Category labels used throughout the analysis (Figure 2's legend).
CATEGORY_ATEN = "aten"
CATEGORY_COMMS = "comms"
CATEGORY_FUSED = "fused"
CATEGORY_CUSTOM = "custom"
ALL_CATEGORIES = (CATEGORY_ATEN, CATEGORY_COMMS, CATEGORY_FUSED, CATEGORY_CUSTOM)

#: Namespaces mapped onto the communication category.
_COMM_NAMESPACES = {"c10d", "nccl"}
#: Namespaces mapped onto the fused category.
_FUSED_NAMESPACES = {"fused", "prim"}


def categorize_node(node: ETNode) -> str:
    """Map an operator node onto one of the four categories of Section 3.3."""
    namespace = node.namespace
    if namespace == "aten":
        return CATEGORY_ATEN
    if namespace in _COMM_NAMESPACES:
        return CATEGORY_COMMS
    if namespace in _FUSED_NAMESPACES:
        return CATEGORY_FUSED
    return CATEGORY_CUSTOM


#: Name prefix of the autograd-engine wrapper annotations the PyTorch
#: observer records around every backward step.
AUTOGRAD_WRAPPER_PREFIX = "autograd::engine::evaluate_function"


def backward_node_ids(trace: ExecutionTrace) -> Set[int]:
    """IDs of all nodes executed by the autograd engine (backward pass).

    Backward steps appear as ``autograd::engine::evaluate_function: …``
    wrapper annotations whose descendants are the actual backward
    operators; tensors produced inside that scope are gradients (the
    classification :mod:`repro.memory.lifetimes` builds on).
    """
    ids: Set[int] = set()
    for node in trace.sorted_nodes():
        if node.name.startswith(AUTOGRAD_WRAPPER_PREFIX):
            ids.add(node.id)
            ids.update(child.id for child in trace.descendants(node.id))
    return ids


# ----------------------------------------------------------------------
# Tensor-size accounting
#
# The one place byte arithmetic over recorded tensors lives: identity
# tuples carry (numel, itemsize) directly, and shape/type pairs resolve
# through the dtype table.  The replayer's tensor manager, the
# communication extractor and the memory subsystem all defer here.
# ----------------------------------------------------------------------
def dtype_from_type_string(type_str: str, default: DType = DType.FLOAT32) -> DType:
    """Resolve a recorded type string (``"Tensor(float32)"``) to a dtype,
    falling back to ``default`` for exotic/unknown element types."""
    try:
        return DType.from_name(type_str)
    except ValueError:
        return default


def tensor_ref_bytes(ref: Sequence) -> int:
    """Bytes of one recorded tensor identity tuple (``numel × itemsize``)."""
    return int(ref[3]) * int(ref[4])


def tensor_bytes_from_shape(shape: Optional[Sequence], type_str: str) -> int:
    """Bytes of a tensor described by recorded shape + type string."""
    numel = int(math.prod(int(dim) for dim in shape)) if shape else 1
    return numel * dtype_from_type_string(type_str).itemsize


def node_input_tensor_bytes(node: ETNode) -> int:
    """Total bytes of all tensor inputs of a node."""
    return sum(tensor_ref_bytes(ref) for ref in node.input_tensor_refs())


def node_output_tensor_bytes(node: ETNode) -> int:
    """Total bytes of all tensor outputs of a node."""
    return sum(tensor_ref_bytes(ref) for ref in node.output_tensor_refs())


def iter_top_level_operators(trace: ExecutionTrace) -> List[ETNode]:
    """Operators kept after parent/child deduplication (Section 4.2).

    Traverse nodes in execution order; keep every operator node encountered
    and skip all of its descendants.  Annotation nodes (no schema) are not
    kept themselves but their children are visited.
    """
    selected: List[ETNode] = []
    skip_below: set = set()
    for node in trace.sorted_nodes():
        if node.parent in skip_below or node.id in skip_below:
            skip_below.add(node.id)
            continue
        if node.is_operator:
            selected.append(node)
            skip_below.add(node.id)
    return selected


@dataclass
class CategoryBreakdown:
    """Operator-category breakdown (count / CPU time / exposed GPU time)."""

    counts: Dict[str, int] = field(default_factory=dict)
    cpu_time_us: Dict[str, float] = field(default_factory=dict)
    gpu_exposed_time_us: Dict[str, float] = field(default_factory=dict)

    def _fractions(self, table: Dict[str, float]) -> Dict[str, float]:
        total = sum(table.values())
        if total <= 0:
            return {category: 0.0 for category in ALL_CATEGORIES}
        return {category: table.get(category, 0.0) / total for category in ALL_CATEGORIES}

    def count_fractions(self) -> Dict[str, float]:
        return self._fractions({k: float(v) for k, v in self.counts.items()})

    def cpu_time_fractions(self) -> Dict[str, float]:
        return self._fractions(self.cpu_time_us)

    def gpu_exposed_fractions(self) -> Dict[str, float]:
        return self._fractions(self.gpu_exposed_time_us)


class ETAnalyzer:
    """Statistics and selection over execution traces."""

    def __init__(self, trace: ExecutionTrace, profiler_trace=None):
        self.trace = trace
        self.profiler_trace = profiler_trace

    # ------------------------------------------------------------------
    def operator_counts(self) -> Dict[str, int]:
        """Occurrences of each operator name among the selected operators."""
        counts: Dict[str, int] = {}
        for node in iter_top_level_operators(self.trace):
            counts[node.name] = counts.get(node.name, 0) + 1
        return counts

    def category_breakdown(self) -> CategoryBreakdown:
        """The Figure 2 breakdown: count, CPU time, exposed GPU time.

        CPU time and exposed GPU time require the paired profiler trace; if
        it is missing, only counts are populated.
        """
        breakdown = CategoryBreakdown()
        selected = iter_top_level_operators(self.trace)
        selected_ids = {node.id for node in selected}
        for node in selected:
            category = categorize_node(node)
            breakdown.counts[category] = breakdown.counts.get(category, 0) + 1

        if self.profiler_trace is None:
            return breakdown

        # CPU time: durations of the cpu_op spans of the selected operators.
        node_category = {node.id: categorize_node(node) for node in selected}
        for event in self.profiler_trace.cpu_ops():
            if event.op_node_id in selected_ids:
                category = node_category[event.op_node_id]
                breakdown.cpu_time_us[category] = (
                    breakdown.cpu_time_us.get(category, 0.0) + event.dur
                )

        # Exposed GPU time: per category, kernel busy intervals not covered
        # by kernels of any other category.  (Imported here: repro.hardware
        # imports repro.torchsim, which must finish loading first.)
        from repro.hardware.gpu import exposed_time_by_category

        descendants_category: Dict[int, str] = dict(node_category)
        for node in selected:
            category = categorize_node(node)
            for child in self.trace.descendants(node.id):
                descendants_category[child.id] = category
        category_intervals: Dict[str, List[Tuple[float, float]]] = {}
        for kernel in self.profiler_trace.kernels():
            category = descendants_category.get(kernel.op_node_id)
            if category is None:
                category = kernel.args.get("category", CATEGORY_ATEN)
            category_intervals.setdefault(category, []).append((kernel.ts, kernel.end))
        breakdown.gpu_exposed_time_us.update(exposed_time_by_category(category_intervals))
        return breakdown

    # ------------------------------------------------------------------
    def operator_gpu_time(self) -> Dict[str, float]:
        """Total GPU kernel time attributed to each selected operator name."""
        if self.profiler_trace is None:
            return {}
        selected = iter_top_level_operators(self.trace)
        own: Dict[int, str] = {}
        for node in selected:
            own[node.id] = node.name
            for child in self.trace.descendants(node.id):
                own[child.id] = node.name
        totals: Dict[str, float] = {}
        for kernel in self.profiler_trace.kernels():
            name = own.get(kernel.op_node_id)
            if name is None:
                continue
            totals[name] = totals.get(name, 0.0) + kernel.dur
        return totals


@dataclass
class TraceDatabaseEntry:
    """One workload's traces in the fleet trace database."""

    name: str
    trace: ExecutionTrace
    population: float = 1.0
    profiler_trace: object = None


class TraceDatabase:
    """A fleet-level collection of captured traces.

    Mystique's ET analyzer selects "the most commonly-occurring" traces from
    the database using population weights (how many fleet jobs the trace
    represents); more sophisticated weightings (timing cost) are future work
    in the paper and exposed here via the ``key`` parameter.
    """

    def __init__(self) -> None:
        self._entries: List[TraceDatabaseEntry] = []

    def add(self, name: str, trace: ExecutionTrace, population: float = 1.0, profiler_trace=None) -> TraceDatabaseEntry:
        entry = TraceDatabaseEntry(name=name, trace=trace, population=population, profiler_trace=profiler_trace)
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[TraceDatabaseEntry]:
        return list(self._entries)

    def select_top(self, count: int, key: str = "population") -> List[TraceDatabaseEntry]:
        """Select the ``count`` most important traces.

        ``key`` may be ``"population"`` (default, fleet population weight)
        or ``"gpu_time"`` (population x captured GPU time, the "timing cost"
        enhancement sketched in Section 8.2).
        """
        def weight(entry: TraceDatabaseEntry) -> float:
            if key == "population":
                return entry.population
            if key == "gpu_time":
                gpu_time = (
                    entry.profiler_trace.total_gpu_time_us()
                    if entry.profiler_trace is not None
                    else 1.0
                )
                return entry.population * gpu_time
            raise ValueError(f"unknown selection key: {key!r}")

        return sorted(self._entries, key=weight, reverse=True)[:count]
