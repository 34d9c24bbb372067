"""Operator selection (Section 4.2).

Given an execution trace, decide which operators to replay:

* **Parent/child deduplication** — composite operators (``aten::linear``)
  already execute their children (``aten::t``, ``aten::addmm``); replaying
  both would double the work.  Since a parent always executes before its
  children, traversing nodes in execution order and skipping the descendants
  of every kept operator removes the redundancy.
* **Annotation descent** — annotation nodes (``record_function`` labels,
  autograd ``evaluate_function`` wrappers) are never replayed themselves;
  their children are visited instead.
* **Subtrace restriction** — when a ``record_function`` label is given, only
  the operators under that label are considered (Section 7.1).
* **Category filtering** — optionally keep only some operator categories,
  e.g. communication operators only, for network debugging (Section 7.1).
* **Support marking** — each selected operator is marked supported or
  unsupported according to the :class:`~repro.core.registry.ReplaySupport`
  policy; the ratio of supported to selected operators is the coverage rate
  of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.registry import ReplaySupport
from repro.et.analyzer import ALL_CATEGORIES, categorize_node
from repro.et.schema import ETNode
from repro.et.trace import ExecutionTrace
from repro.torchsim.profiler import ProfilerTrace


@dataclass
class ReplayPlanEntry:
    """One selected operator and whether the replayer supports it."""

    node: ETNode
    supported: bool
    category: str
    reason: Optional[str] = None
    #: Total GPU kernel time the operator (and its children) launched in the
    #: original run, from the profiler trace; used for time-based coverage.
    original_gpu_time_us: float = 0.0


@dataclass
class CoverageReport:
    """Operator coverage of a workload (the two columns of Table 3)."""

    total_count: int
    supported_count: int
    total_gpu_time_us: float
    supported_gpu_time_us: float

    @property
    def count_coverage(self) -> float:
        if self.total_count == 0:
            return 1.0
        return self.supported_count / self.total_count

    @property
    def time_coverage(self) -> float:
        if self.total_gpu_time_us <= 0:
            return 1.0
        return self.supported_gpu_time_us / self.total_gpu_time_us


@dataclass
class SelectionResult:
    """Outcome of operator selection over one trace."""

    entries: List[ReplayPlanEntry] = field(default_factory=list)

    def supported_entries(self) -> List[ReplayPlanEntry]:
        return [entry for entry in self.entries if entry.supported]

    def unsupported_entries(self) -> List[ReplayPlanEntry]:
        return [entry for entry in self.entries if not entry.supported]

    def category_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.category] = counts.get(entry.category, 0) + 1
        return counts

    def coverage(self) -> CoverageReport:
        return CoverageReport(
            total_count=len(self.entries),
            supported_count=len(self.supported_entries()),
            total_gpu_time_us=sum(entry.original_gpu_time_us for entry in self.entries),
            supported_gpu_time_us=sum(
                entry.original_gpu_time_us for entry in self.supported_entries()
            ),
        )

    def __len__(self) -> int:
        return len(self.entries)


class OperatorSelector:
    """Selects the operators to replay from an execution trace."""

    def __init__(self, support: Optional[ReplaySupport] = None):
        self.support = support if support is not None else ReplaySupport()

    # ------------------------------------------------------------------
    def select(
        self,
        trace: ExecutionTrace,
        profiler_trace: Optional[ProfilerTrace] = None,
        subtrace_label: Optional[str] = None,
        categories: Optional[Sequence[str]] = None,
    ) -> SelectionResult:
        """Build the replay plan for a trace.

        Parameters
        ----------
        trace:
            The execution trace to replay.
        profiler_trace:
            Optional paired profiler trace; when given, each plan entry is
            annotated with the GPU time its original launched, enabling the
            execution-time coverage of Table 3.
        subtrace_label:
            Restrict selection to the operators under this
            ``record_function`` label.
        categories:
            Restrict selection to these operator categories
            (subset of ``{"aten", "comms", "fused", "custom"}``).
        """
        allowed_categories = self._validate_categories(categories)
        allowed_ids = self._subtrace_scope(trace, subtrace_label)

        op_gpu_time = self._gpu_time_per_operator(trace, profiler_trace)

        entries: List[ReplayPlanEntry] = []
        skip_below: Set[int] = set()
        for node in trace.sorted_nodes():
            if node.parent in skip_below or node.id in skip_below:
                skip_below.add(node.id)
                continue
            if allowed_ids is not None and node.id not in allowed_ids:
                continue
            if not node.is_operator:
                continue
            # Keep the operator, skip its children (Section 4.2).
            skip_below.add(node.id)
            category = categorize_node(node)
            if allowed_categories is not None and category not in allowed_categories:
                continue
            supported = self.support.is_supported(node)
            entries.append(
                ReplayPlanEntry(
                    node=node,
                    supported=supported,
                    category=category,
                    reason=None if supported else self.support.unsupported_reason(node),
                    original_gpu_time_us=op_gpu_time.get(node.id, 0.0),
                )
            )
        return SelectionResult(entries=entries)

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_categories(categories: Optional[Sequence[str]]) -> Optional[Set[str]]:
        if categories is None:
            return None
        allowed = set(categories)
        unknown = allowed.difference(ALL_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown operator categories: {sorted(unknown)}")
        return allowed

    @staticmethod
    def _subtrace_scope(trace: ExecutionTrace, label: Optional[str]) -> Optional[Set[int]]:
        if label is None:
            return None
        anchors = trace.find_by_label(label)
        if not anchors:
            raise KeyError(f"record_function label {label!r} not found in the trace")
        scope: Set[int] = set()
        for anchor in anchors:
            scope.update(node.id for node in trace.descendants(anchor.id))
        return scope

    @staticmethod
    def _gpu_time_per_operator(
        trace: ExecutionTrace, profiler_trace: Optional[ProfilerTrace]
    ) -> Dict[int, float]:
        """GPU kernel time per trace node, rolled up to each node itself.

        Kernels are recorded against the node that launched them, which may
        be a child of the selected operator; roll child time up to every
        ancestor so selected parents see the full cost.
        """
        if profiler_trace is None:
            return {}
        per_node = profiler_trace.op_gpu_time_map()
        rolled: Dict[int, float] = dict(per_node)
        parent_of = {node.id: node.parent for node in trace.nodes}
        for node_id, gpu_time in per_node.items():
            parent = parent_of.get(node_id, 0)
            seen: Set[int] = set()
            while parent and parent in parent_of and parent not in seen:
                seen.add(parent)
                rolled[parent] = rolled.get(parent, 0.0) + gpu_time
                parent = parent_of.get(parent, 0)
        return rolled
