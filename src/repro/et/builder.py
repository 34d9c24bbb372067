"""Execution-trace building and preprocessing.

The ET builder of Figure 3 prepares raw captured traces for replay:
validation, normalisation (re-parenting orphans, dropping empty annotation
scaffolding), extraction of labelled subtraces, filtering by operator type,
and composition of several traces/subtraces into a single replayable trace
(the aggregation use case sketched in Section 8.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.et.analyzer import categorize_node
from repro.et.schema import ETNode, ROOT_NODE_ID, is_tensor_type
from repro.et.trace import ExecutionTrace


@dataclass
class ValidationIssue:
    """One problem found while validating a trace."""

    node_id: int
    kind: str
    message: str


class ETBuilder:
    """Preprocessing, validation and composition of execution traces."""

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    @staticmethod
    def validate(trace: ExecutionTrace) -> List[ValidationIssue]:
        """Check structural invariants; returns a list of issues (empty = ok).

        Checked invariants: unique node IDs, parents that exist, a single
        root, and argument arrays of consistent lengths.
        """
        issues: List[ValidationIssue] = []
        seen: set = set()
        ids = {node.id for node in trace.nodes}
        for node in trace.sorted_nodes():
            if node.id in seen:
                issues.append(ValidationIssue(node.id, "duplicate_id", f"node id {node.id} appears twice"))
            seen.add(node.id)
            if node.id != ROOT_NODE_ID and node.parent not in ids:
                issues.append(
                    ValidationIssue(node.id, "missing_parent", f"parent {node.parent} of node {node.id} not in trace")
                )
            if not (len(node.inputs) == len(node.input_shapes) == len(node.input_types)):
                issues.append(
                    ValidationIssue(node.id, "input_arity", "inputs/input_shapes/input_types lengths differ")
                )
            if not (len(node.outputs) == len(node.output_shapes) == len(node.output_types)):
                issues.append(
                    ValidationIssue(node.id, "output_arity", "outputs/output_shapes/output_types lengths differ")
                )
        return issues

    # ------------------------------------------------------------------
    # Normalisation
    # ------------------------------------------------------------------
    @staticmethod
    def preprocess(trace: ExecutionTrace) -> ExecutionTrace:
        """Return a cleaned copy: sorted, orphans re-parented to the root."""
        ids = {node.id for node in trace.nodes}
        cleaned = ExecutionTrace(metadata=dict(trace.metadata))
        has_root = any(node.id == ROOT_NODE_ID for node in trace.nodes)
        if not has_root:
            cleaned.add_node(ETNode(name="[pytorch|profiler|execution_graph|process]", id=ROOT_NODE_ID, parent=0))
        for node in trace.sorted_nodes():
            if node.id != ROOT_NODE_ID and node.parent not in ids:
                node = replace(node, parent=ROOT_NODE_ID)
            cleaned.add_node(node)
        return cleaned

    # ------------------------------------------------------------------
    # Extraction / filtering
    # ------------------------------------------------------------------
    @staticmethod
    def extract_subtrace(trace: ExecutionTrace, label: str) -> ExecutionTrace:
        """Extract the subtree under a ``record_function`` label.

        The label node becomes a child of a fresh root; everything outside
        the labelled range is dropped.  This powers the subtrace replay use
        case of Section 7.1.
        """
        anchors = trace.find_by_label(label)
        if not anchors:
            raise KeyError(f"label {label!r} not found in trace")
        sub = ExecutionTrace(metadata={**trace.metadata, "subtrace_label": label})
        sub.add_node(ETNode(name="[pytorch|profiler|execution_graph|process]", id=ROOT_NODE_ID, parent=0))
        keep_ids = set()
        for anchor in anchors:
            keep_ids.add(anchor.id)
            keep_ids.update(node.id for node in trace.descendants(anchor.id))
        anchor_ids = {anchor.id for anchor in anchors}
        for node in trace.sorted_nodes():
            if node.id not in keep_ids:
                continue
            sub.add_node(replace(node, parent=ROOT_NODE_ID) if node.id in anchor_ids else node)
        return sub

    @staticmethod
    def filter_by_category(trace: ExecutionTrace, categories: Sequence[str]) -> ExecutionTrace:
        """Keep only operators of the given categories (plus their children).

        Used e.g. to replay only communication operators when diagnosing
        network issues (Section 7.1).
        """
        wanted = set(categories)
        filtered = ExecutionTrace(metadata={**trace.metadata, "category_filter": sorted(wanted)})
        filtered.add_node(ETNode(name="[pytorch|profiler|execution_graph|process]", id=ROOT_NODE_ID, parent=0))
        keep_ids: set = set()
        for node in trace.sorted_nodes():
            if node.is_operator and categorize_node(node) in wanted and node.id not in keep_ids:
                keep_ids.add(node.id)
                keep_ids.update(child.id for child in trace.descendants(node.id))
        for node in trace.sorted_nodes():
            if node.id not in keep_ids:
                continue
            filtered.add_node(node if node.parent in keep_ids else replace(node, parent=ROOT_NODE_ID))
        return filtered

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    @staticmethod
    def compose(traces: Sequence[ExecutionTrace], name: str = "composed") -> ExecutionTrace:
        """Concatenate several traces into one replayable trace.

        Node IDs and tensor IDs are re-numbered so the pieces cannot
        collide; each source trace's top-level nodes keep their relative
        execution order and are appended after the previous trace's nodes.
        This enables combining portions of different ETs into a single
        replay trace for aggregate benchmarks (Section 8.2).
        """
        composed = ExecutionTrace(metadata={"composed_from": [t.metadata.get("workload", "?") for t in traces], "workload": name})
        composed.add_node(ETNode(name="[pytorch|profiler|execution_graph|process]", id=ROOT_NODE_ID, parent=0))
        next_id = itertools.count(ROOT_NODE_ID + 1)
        for trace_index, trace in enumerate(traces):
            offset = (trace_index + 1) * 10_000_000
            id_map: Dict[int, int] = {ROOT_NODE_ID: ROOT_NODE_ID}
            for node in trace.sorted_nodes():
                if node.id == ROOT_NODE_ID:
                    continue
                new_id = next(next_id)
                id_map[node.id] = new_id
            for node in trace.sorted_nodes():
                if node.id == ROOT_NODE_ID:
                    continue
                composed.add_node(replace(
                    node,
                    id=id_map[node.id],
                    parent=id_map.get(node.parent, ROOT_NODE_ID),
                    inputs=_remap_tensor_ids(node.inputs, node.input_types, node.input_refs, offset),
                    outputs=_remap_tensor_ids(node.outputs, node.output_types, node.output_refs, offset),
                ))
        return composed


def _remap_tensor_ids(values: List, types: List[str], arg_refs, offset: int) -> List:
    """Shift tensor/storage IDs by ``offset`` (a per-source-trace namespace)."""

    def shift(ref, item):
        return item if ref is None else [ref[0] + offset, ref[1] + offset, *ref[2:]]

    remapped = []
    for value, type_str, refs in zip(values, types, arg_refs):
        if is_tensor_type(type_str):
            value = shift(refs[0], value)
        elif refs:  # a tensor list
            value = [shift(ref, item) for ref, item in zip(refs, value)]
        remapped.append(value)
    return remapped
