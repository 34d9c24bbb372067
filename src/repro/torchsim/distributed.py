"""c10d-style distributed state: process groups and work handles.

Distributed training in the paper uses the PyTorch ``c10d`` library with
nccl/gloo/mpi/ucc backends.  What Mystique needs from it is:

* process groups (which ranks participate in a collective),
* the message sizes and dtypes of each collective,
* blocking vs. asynchronous execution semantics (``Work.wait()``).

This module models exactly those pieces.  The actual duration of a
collective comes from :class:`repro.hardware.network.CollectiveCostModel`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.hardware.network import CollectiveCostModel, InterconnectSpec
from repro.torchsim.kernel import KernelLaunch

#: Backends accepted by :func:`DistributedContext.new_group`, mirroring c10d.
SUPPORTED_BACKENDS = ("nccl", "gloo", "mpi", "ucc")


def group_key(ranks: Iterable[int]) -> Tuple[int, ...]:
    """A group's canonical identity for matching collectives across ranks:
    its members as sorted ints.  The one derivation of that key —
    :attr:`ProcessGroup.key` and the cluster engine's pre-flight match
    both use it."""
    return tuple(sorted(map(int, ranks)))


@dataclass(frozen=True)
class ProcessGroup:
    """A communication group: an ordered set of participating ranks."""

    pg_id: int
    ranks: Tuple[int, ...]
    backend: str = "nccl"
    #: :func:`group_key` of :attr:`ranks`, computed once: every collective
    #: over the group is matched on it, and a world-sized group must not
    #: be re-sorted per collective per rank.
    key: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.backend not in SUPPORTED_BACKENDS:
            raise ValueError(
                f"unsupported backend {self.backend!r}; expected one of {SUPPORTED_BACKENDS}"
            )
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("process group ranks must be unique")
        object.__setattr__(self, "key", group_key(self.ranks))

    @property
    def size(self) -> int:
        return len(self.ranks)

    def contains(self, rank: int) -> bool:
        return rank in self.ranks

    def describe(self) -> Dict[str, object]:
        """JSON-friendly description recorded in execution-trace inputs."""
        return {"pg_id": self.pg_id, "ranks": list(self.ranks), "backend": self.backend}


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

    def __init__(self, slot: Tuple[Tuple[Tuple[int, ...], str], int]) -> None:
        super().__init__(slot)
        self.slot = slot

    def __str__(self) -> str:
        # Rendered on demand: a fleet blocks on world-sized groups once per
        # collective per rank, and almost nobody reads the message.
        (ranks, op), seq = self.slot
        return f"rank blocked on collective {op}[{seq}] over ranks {list(ranks)}"


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
    """Per-process distributed state (rank, world size, process groups)."""

    def __init__(
        self,
        rank: int,
        world_size: int,
        interconnect: Optional[InterconnectSpec] = None,
        collective_model: Optional[CollectiveCostModel] = None,
        backend: str = "nccl",
    ) -> None:
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world size {world_size}")
        self.rank = rank
        self.world_size = world_size
        self.backend = backend
        if collective_model is not None:
            self.collective_model = collective_model
        else:
            self.collective_model = CollectiveCostModel(interconnect or InterconnectSpec())
        self._pg_counter = itertools.count(1)
        self.default_group = ProcessGroup(0, tuple(range(world_size)), backend)
        self.groups: Dict[int, ProcessGroup] = {0: self.default_group}
        #: (ranks, backend) -> group, so trace replays with many process
        #: groups resolve recorded descriptions in O(1) per collective
        #: instead of scanning every group.
        self._group_index: Dict[Tuple[Tuple[int, ...], str], ProcessGroup] = {
            (self.default_group.ranks, self.default_group.backend): self.default_group
        }
        #: Cross-rank collective scheduler for multi-rank co-replay; when
        #: set (see :mod:`repro.cluster`), collectives synchronise through
        #: it instead of being priced purely locally.
        self.rendezvous: Optional[object] = None

    # ------------------------------------------------------------------
    def new_group(self, ranks: Sequence[int], backend: Optional[str] = None) -> ProcessGroup:
        """Create a new process group over ``ranks`` (mirrors ``dist.new_group``)."""
        group = ProcessGroup(
            pg_id=next(self._pg_counter),
            ranks=tuple(int(r) for r in ranks),
            backend=backend or self.backend,
        )
        self.groups[group.pg_id] = group
        self._group_index.setdefault((group.ranks, group.backend), group)
        return group

    def get_group(self, pg_id: int) -> ProcessGroup:
        if pg_id not in self.groups:
            raise KeyError(f"unknown process group id {pg_id}")
        return self.groups[pg_id]

    def group_for_description(self, description: Dict[str, object]) -> ProcessGroup:
        """Find-or-create a group matching a recorded description.

        Mystique's communication replay creates new process groups and maps
        them onto the groups recorded in the trace (Section 4.3.2); this is
        the find-or-create half of that mapping.
        """
        ranks = description.get("ranks")
        ranks = self.default_group.ranks if ranks is None else tuple(ranks)
        backend = str(description.get("backend", self.backend))
        existing = self._group_index.get((ranks, backend))
        if existing is None:
            # Recorded ranks are ints in every trace we write; convert only
            # when the plain lookup misses, not per collective per rank.
            ranks = tuple(map(int, ranks))
            existing = self._group_index.get((ranks, backend))
        if existing is not None:
            return existing
        return self.new_group(ranks, backend)
