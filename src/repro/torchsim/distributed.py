"""c10d-style distributed state: process groups and work handles.

Distributed training in the paper uses the PyTorch ``c10d`` library with
nccl/gloo/mpi/ucc backends.  What Mystique needs from it is:

* process groups (which ranks participate in a collective),
* the message sizes and dtypes of each collective,
* blocking vs. asynchronous execution semantics (``Work.wait()``).

This module models exactly those pieces.  The actual duration of a
collective comes from :class:`repro.hardware.network.CollectiveCostModel`.

A group's identity is decided here: a world's :class:`GroupTable` interns
one :class:`ProcessGroup` per (sorted ranks, backend), and groups hash by
identity.  A replay or a capture keeps a private table; the ranks of one
co-replay share their world's (:class:`GroupTables`, on the rendezvous).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Tuple

from repro.hardware.network import CollectiveCostModel
from repro.torchsim.kernel import KernelLaunch

#: Backends a :class:`ProcessGroup` accepts, mirroring c10d.
SUPPORTED_BACKENDS = ("nccl", "gloo", "mpi", "ucc")

#: Bound on a table's description memo: a capture builds a fresh
#: description per call, and the memo must not keep them all alive.
_MAX_DESCRIPTIONS = 1024


@dataclass(frozen=True, eq=False)
class ProcessGroup:
    """A communication group: its members, in ascending order.  Interned
    by a :class:`GroupTable`, so it compares and hashes by identity."""

    pg_id: int
    ranks: Tuple[int, ...]
    backend: str

    def __post_init__(self) -> None:
        if self.backend not in SUPPORTED_BACKENDS:
            raise ValueError(
                f"unsupported backend {self.backend!r}; expected one of {SUPPORTED_BACKENDS}"
            )
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("process group ranks must be unique")

    def __lt__(self, other: "ProcessGroup") -> bool:
        # Never by pg_id: which rank of a co-replay creates a group first
        # depends on the scheduler's pick order.
        return (self.ranks, self.backend) < (other.ranks, other.backend)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def describe(self) -> Dict[str, object]:
        """JSON-friendly description recorded in execution-trace inputs."""
        return {"pg_id": self.pg_id, "ranks": list(self.ranks), "backend": self.backend}


class GroupTable:
    """The process groups of one world of ``world_size`` ranks, and the
    only code that turns a rank list or a recorded description into one
    (the replay-side group mapping of Section 4.3.2)."""

    def __init__(self, world_size: int) -> None:
        self.world_size = world_size
        self._groups: Dict[Tuple[Tuple[int, ...], str], ProcessGroup] = {}
        self._described: Dict[int, Tuple[Dict[str, object], ProcessGroup]] = {}
        self.default_group = self.group(range(world_size))

    def __len__(self) -> int:
        return len(self._groups)

    @staticmethod
    def canonical_ranks(ranks: Iterable[Any]) -> Tuple[int, ...]:
        """A group's identity: its members as sorted ints (c10d's
        ``new_group`` sorts them too)."""
        return tuple(sorted(map(int, ranks)))

    def group(self, ranks: Iterable[Any], backend: Optional[str] = None) -> ProcessGroup:
        """The group over ``ranks`` (mirrors ``dist.new_group``), created on
        first use."""
        ranks, backend = tuple(ranks), backend or "nccl"
        group = self._groups.get((ranks, backend))
        if group is None:
            # Recorded ranks are sorted ints in every trace we write; sort
            # and convert only when the plain lookup misses.
            key = (self.canonical_ranks(ranks), backend)
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = ProcessGroup(len(self._groups), *key)
        return group

    def for_description(self, description: Dict[str, object]) -> ProcessGroup:
        """The group a recorded description names (no ``ranks``: the world).

        A replay hands a collective the same (read-only) description object
        on every call, so the answer is kept by the object's identity and a
        world-sized rank list is read once, not once per call.
        """
        known = self._described.get(id(description))
        if known is not None and known[0] is description:
            return known[1]
        ranks = description.get("ranks")
        group = self.group(
            range(self.world_size) if ranks is None else ranks, description.get("backend")
        )
        if len(self._described) >= _MAX_DESCRIPTIONS:
            self._described.clear()
        self._described[id(description)] = (description, group)
        return group


class GroupTables(dict):
    """World size -> that world's :class:`GroupTable`, created on first use."""

    def __missing__(self, world_size: int) -> GroupTable:
        table = self[world_size] = GroupTable(world_size)
        return table


class Work:
    """Handle returned by asynchronous collectives (mirrors ``c10d.Work``)."""

    def __init__(self, runtime, launch: KernelLaunch):
        self._runtime = runtime
        self._launch = launch
        self._completed = False

    def wait(self) -> None:
        """Block the issuing CPU thread until the collective kernel finishes."""
        if self._launch.end is not None:
            self._runtime.block_until(self._launch.end)
        self._completed = True

    def is_completed(self) -> bool:
        return self._completed or (
            self._launch.end is not None and self._launch.end <= self._runtime.now()
        )

    @property
    def launch(self) -> KernelLaunch:
        return self._launch


class RankBlocked(Exception):
    """Control-flow signal of the event rendezvous: the announcing rank
    cannot proceed until the collective slot resolves.

    Raised by :meth:`repro.cluster.rendezvous.EventRendezvous.sync`
    *instead of blocking*; caught only by :func:`retry_collective`, which
    rolls the runtime back to the op boundary and yields the signal to
    whoever drives the replay.  The cluster scheduler parks the rank on
    :attr:`slot` and retries once the slot resolves; a single-rank pipeline
    has nothing to wait for and fails with a typed pipeline error.
    """

    def __init__(self, slot: Any) -> None:
        super().__init__(slot)
        #: The :class:`~repro.cluster.rendezvous.CollectiveSlot`: the
        #: interned group, the op name and the per-group sequence number.
        self.slot = slot

    def __str__(self) -> str:
        # Rendered on demand: a fleet blocks on world-sized groups once per
        # collective per rank, and almost nobody reads the message.
        return f"rank blocked on collective {self.slot}"


def retry_collective(
    runtime, op: Callable[..., Any], *args: Any, **kwargs: Any
) -> Generator[RankBlocked, None, Any]:
    """Run ``op(*args, **kwargs)``, a collective replayed on ``runtime``,
    yielding :class:`RankBlocked` until its rendezvous resolves; returns
    the op's result.

    A blocked attempt has already consumed a node ID and advanced the CPU
    clock by the dispatch overhead inside ``Runtime.call``, so the runtime
    is restored to a :meth:`~repro.torchsim.runtime.Runtime.clock_state`
    snapshot taken at the op boundary before the signal is yielded.  The
    retry re-executes the op verbatim (the rendezvous recognises it and
    does not consume a second sequence number); everything else
    ``Runtime.call`` touches is exception-safe or mutated only after the op
    returns, so the retried op replays exactly as a blocking rendezvous
    would have.
    """
    while True:
        snapshot = runtime.clock_state()
        try:
            return op(*args, **kwargs)
        except RankBlocked as signal:
            # Only the slot is needed.  The traceback would pin the aborted
            # op's frames in a cycle through this generator's own frame.
            blocked = signal.with_traceback(None)
        runtime.restore_clock_state(snapshot)
        yield blocked


class DistributedContext:
    """Per-process distributed state: rank, world size and the world's
    :class:`GroupTable` (a private one unless ``groups`` is given)."""

    def __init__(
        self,
        rank: int,
        world_size: int,
        collective_model: Optional[CollectiveCostModel] = None,
        groups: Optional[GroupTable] = None,
    ) -> None:
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world size {world_size}")
        self.rank = rank
        self.world_size = world_size
        self.collective_model = collective_model or CollectiveCostModel()
        self.groups = groups if groups is not None else GroupTable(world_size)
        self.default_group = self.groups.default_group
        #: Cross-rank collective scheduler for multi-rank co-replay; when
        #: set (see :mod:`repro.cluster`), collectives synchronise through
        #: it instead of being priced purely locally.
        self.rendezvous: Optional[object] = None
