"""Communication-operator replay (Section 4.3.2).

Replaying a communication operator needs more than its schema: the process
group it ran on, the message size and dtype, and whether the call was
blocking.  All of that is recorded in the execution trace; this module

* extracts the communication operators and their recorded process groups,
* creates replay-side process groups and maps the recorded groups onto them
  (optionally remapping ranks, e.g. when replaying a 64-rank trace on a
  2-rank test setup), and
* summarises the communication pattern (per-collective byte counts), which
  the scale-down emulator and the network-debugging use case build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.et.analyzer import CATEGORY_COMMS, categorize_node, node_input_tensor_bytes
from repro.et.schema import ETNode
from repro.et.trace import ExecutionTrace
from repro.torchsim.distributed import DistributedContext, GroupTable, ProcessGroup


@dataclass
class CommOpRecord:
    """One communication operator extracted from a trace."""

    node_id: int
    name: str
    bytes_per_rank: float
    recorded_group: Dict[str, object]
    async_op: bool


@dataclass
class CommPlan:
    """What a replay needs from a trace's communication operators, derived
    in one pass: a co-replay's fleet plan builds it once and serves both the
    pre-flight collective match and every rank's ``init-comms`` from it."""

    records: List[CommOpRecord]
    #: The distinct replay-side group descriptions
    #: (:meth:`CommReplayManager.map_group`), in order of first use: the
    #: groups ``init-comms`` pre-creates.
    descriptions: List[Dict[str, object]]

    @classmethod
    def build(cls, trace: ExecutionTrace, remap_to_world_size: Optional[int] = None) -> "CommPlan":
        records = CommReplayManager.extract(trace)
        mapper = CommReplayManager(remap_to_world_size)
        return cls(records=records, descriptions=mapper.group_descriptions(records))

    def ensure_groups(self, dist: DistributedContext) -> List[ProcessGroup]:
        """Pre-create every process group the replay will need on ``dist``.

        Creating groups during initialisation (rather than lazily inside the
        measured region) mirrors the paper's implementation and avoids
        perturbing the replayed timing.
        """
        return [dist.groups.for_description(description) for description in self.descriptions]


@dataclass
class CommSummary:
    """Aggregate communication pattern of a trace."""

    total_bytes: float = 0.0
    per_collective_bytes: Dict[str, float] = field(default_factory=dict)
    per_collective_count: Dict[str, int] = field(default_factory=dict)
    world_sizes: List[int] = field(default_factory=list)


class CommReplayManager:
    """Maps recorded process groups onto replay-side groups."""

    def __init__(self, remap_to_world_size: Optional[int] = None):
        self.remap_to_world_size = remap_to_world_size

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    @staticmethod
    def extract(trace: ExecutionTrace) -> List[CommOpRecord]:
        """All communication operators of a trace with their metadata."""
        records: List[CommOpRecord] = []
        for node in trace.operators():
            if categorize_node(node) != CATEGORY_COMMS:
                continue
            records.append(
                CommOpRecord(
                    node_id=node.id,
                    name=node.name,
                    bytes_per_rank=_tensor_bytes(node),
                    recorded_group=_recorded_group(node),
                    async_op=_async_flag(node),
                )
            )
        return records

    @staticmethod
    def summarize(trace: ExecutionTrace) -> CommSummary:
        summary = CommSummary()
        for record in CommReplayManager.extract(trace):
            summary.total_bytes += record.bytes_per_rank
            summary.per_collective_bytes[record.name] = (
                summary.per_collective_bytes.get(record.name, 0.0) + record.bytes_per_rank
            )
            summary.per_collective_count[record.name] = (
                summary.per_collective_count.get(record.name, 0) + 1
            )
            ranks = record.recorded_group.get("ranks")
            if isinstance(ranks, (list, tuple)) and ranks:
                summary.world_sizes.append(len(ranks))
        return summary

    # ------------------------------------------------------------------
    # Group mapping
    # ------------------------------------------------------------------
    def map_group(self, recorded_group: Dict[str, object]) -> Optional[Dict[str, object]]:
        """Return the process-group description the replayed op should use.

        With ``remap_to_world_size`` set, the recorded ranks are folded onto
        the smaller replay world (rank ``r`` → ``r % world_size``), which is
        how a large-scale trace is replayed on a small test setup while
        keeping a valid group structure.  Without it the recorded group is
        used verbatim, so the collective cost model still prices the
        original group size — the basis of the scale-down emulation.

        Folding can collapse a recorded group onto a **single** rank (any
        group replayed with ``remap_to_world_size=1``, or a sub-world
        group whose ranks are congruent modulo the replay world).  Such a
        singleton "collective" has nothing to exchange; the collective
        operators price it as a free local no-op (no alpha-beta cost)
        instead of consulting the interconnect model.
        """
        if not recorded_group:
            return None
        if self.remap_to_world_size is None:
            return dict(recorded_group)
        ranks = recorded_group.get("ranks", [])
        remapped = sorted({int(rank) % self.remap_to_world_size for rank in ranks})
        return {
            "pg_id": recorded_group.get("pg_id", 0),
            "ranks": remapped,
            "backend": recorded_group.get("backend", "nccl"),
        }

    def group_descriptions(self, records: Sequence[CommOpRecord]) -> List[Dict[str, object]]:
        """The distinct replay-side group descriptions of ``records``
        (:meth:`map_group`), in order of first use."""
        descriptions: Dict[object, Dict[str, object]] = {}
        for record in records:
            description = self.map_group(record.recorded_group)
            if description is not None:
                ranks = GroupTable.canonical_ranks(description.get("ranks") or ())
                descriptions.setdefault((ranks, description.get("backend")), description)
        return list(descriptions.values())


# ----------------------------------------------------------------------
def _tensor_bytes(node: ETNode) -> float:
    return float(node_input_tensor_bytes(node))


def _recorded_group(node: ETNode) -> Dict[str, object]:
    for value, type_str in zip(node.inputs, node.input_types):
        if type_str == "Dict" and isinstance(value, dict) and "ranks" in value:
            return dict(value)
    return {}


def _async_flag(node: ETNode) -> bool:
    for value, type_str in zip(reversed(node.inputs), reversed(node.input_types)):
        if type_str == "Bool":
            return bool(value)
    return False
