"""The execution-trace container.

An :class:`ExecutionTrace` is an ordered collection of
:class:`~repro.et.schema.ETNode` objects plus trace-level metadata (rank,
world size, workload name, capture platform).  Node IDs are assigned in
execution order, so iterating nodes sorted by ID reproduces the original
execution order — the property Mystique's replayer relies on.  Every trace
enters through :meth:`ExecutionTrace.from_dict` (behind ``load`` and
``from_json``), which validates as it decodes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.et.schema import ETNode, ROOT_NODE_ID, TraceValidationError

#: Version string written into serialised traces.
TRACE_SCHEMA_VERSION = "1.0.2-repro"

#: Largest serialised trace accepted; a bigger input fails before parsing.
MAX_TRACE_BYTES = 256 << 20


@dataclass
class ExecutionTrace:
    """A captured execution trace."""

    nodes: List[ETNode] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------
    def add_node(self, node: ETNode) -> ETNode:
        self.nodes.append(node)
        self._indexes = None
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[ETNode]:
        return iter(self.sorted_nodes())

    def sorted_nodes(self) -> List[ETNode]:
        """Nodes in execution order (increasing ID)."""
        return sorted(self.nodes, key=lambda node: node.id)

    def get(self, node_id: int) -> ETNode:
        index = self._node_index()
        if node_id not in index:
            raise KeyError(f"no node with id {node_id}")
        return index[node_id]

    def has(self, node_id: int) -> bool:
        return node_id in self._node_index()

    def children(self, node_id: int) -> List[ETNode]:
        """Direct children of a node, in execution order."""
        return sorted(
            (node for node in self.nodes if node.parent == node_id),
            key=lambda node: node.id,
        )

    def descendants(self, node_id: int) -> List[ETNode]:
        """All transitive children of a node, in execution order."""
        result: List[ETNode] = []
        frontier = [node_id]
        children_map = self._children_index()
        while frontier:
            current = frontier.pop()
            for child in children_map.get(current, []):
                result.append(child)
                frontier.append(child.id)
        return sorted(result, key=lambda node: node.id)

    def root_nodes(self) -> List[ETNode]:
        """Nodes whose parent is the synthetic root (top-level operators)."""
        return self.children(ROOT_NODE_ID)

    def operators(self) -> List[ETNode]:
        """All nodes that are real operator invocations (have a schema)."""
        return [node for node in self.sorted_nodes() if node.is_operator]

    def find_by_name(self, name: str) -> List[ETNode]:
        """All nodes whose name matches exactly, in execution order."""
        return [node for node in self.sorted_nodes() if node.name == name]

    def find_by_label(self, label: str) -> List[ETNode]:
        """All annotation nodes whose name contains ``label``.

        ``record_function`` labels (e.g. ``"## forward ##"``) show up as
        annotation nodes; subtrace replay locates them this way.
        """
        return [node for node in self.sorted_nodes() if label in node.name]

    # ------------------------------------------------------------------
    # Indexing helpers
    # ------------------------------------------------------------------
    #: ``(id -> node, parent id -> children in execution order)``, or
    #: ``None`` until the next lookup builds it.  A trace loaded from a file
    #: is shared by every replay of that file in the process
    #: (:mod:`repro.service.repository`), possibly on several threads at
    #: once, so the pair is built aside and published by one assignment: a
    #: reader sees the whole of one build or builds its own.
    _indexes: Optional[Tuple[Dict[int, ETNode], Dict[int, List[ETNode]]]] = field(
        default=None, repr=False, compare=False
    )

    def _rebuild_indexes(self) -> Tuple[Dict[int, ETNode], Dict[int, List[ETNode]]]:
        by_id = {node.id: node for node in self.nodes}
        children: Dict[int, List[ETNode]] = {}
        for node in self.nodes:
            children.setdefault(node.parent, []).append(node)
        for siblings in children.values():
            siblings.sort(key=lambda node: node.id)
        indexes = self._indexes = (by_id, children)
        return indexes

    def _node_index(self) -> Dict[int, ETNode]:
        return (self._indexes or self._rebuild_indexes())[0]

    def _children_index(self) -> Dict[int, List[ETNode]]:
        return (self._indexes or self._rebuild_indexes())[1]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "metadata": self.metadata,
            "nodes": [node.to_dict() for node in self.sorted_nodes()],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ExecutionTrace":
        """Validate and decode a serialised trace: an object with a non-empty
        ``nodes`` array (each checked by :meth:`ETNode.from_dict`) and an
        optional object ``metadata``; raises :class:`TraceValidationError`."""
        nodes, metadata = (data.get("nodes"), data.get("metadata", {})) if isinstance(data, dict) else (None, None)
        if not isinstance(nodes, list) or not nodes or not isinstance(metadata, dict):
            raise TraceValidationError("not an object with a non-empty 'nodes' array and an object 'metadata'")
        return cls(nodes=[ETNode.from_dict(entry) for entry in nodes], metadata=dict(metadata))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def canonical_json(self) -> str:
        """Key-sorted, whitespace-free JSON form used for content hashing."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"), default=str)

    def digest(self) -> str:
        """Stable content hash of the trace (hex SHA-256).

        Two traces with the same nodes and metadata produce the same digest
        regardless of on-disk formatting; the trace repository and result
        cache of :mod:`repro.service` key on this.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "ExecutionTrace":
        return cls.from_dict(_parse(text))

    def save(self, path: "str | Path") -> Path:
        """Write the trace to a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "ExecutionTrace":
        """Decode one trace file, reading no more than it holds or :data:`MAX_TRACE_BYTES` + 1."""
        with Path(path).open("rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            return cls.from_dict(_parse(handle.read(min(size, MAX_TRACE_BYTES) + 1)))


def _parse(raw: Union[str, bytes]) -> Any:
    if len(raw) > MAX_TRACE_BYTES:
        raise TraceValidationError(f"trace exceeds the {MAX_TRACE_BYTES}-byte limit")
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as error:
        raise TraceValidationError(f"unreadable JSON: {error}") from None
