"""Cross-rank collective matching and virtual-time release.

The paper's distributed replay (Section 4.3.2) captures one execution trace
per rank, from the same iteration, precisely so that the communication
operators can be *matched* across ranks during replay.  A rendezvous is
where that matching happens at replay time: every rank replica announces
each collective it reaches — identified by (process group, per-group
sequence number, operator name) — along with the virtual time at which its
GPU could start the kernel.  Once every participating replica has arrived,
the rendezvous

* prices the collective **once** with the shared
  :class:`~repro.hardware.network.CollectiveCostModel` (all ranks see the
  same duration, as a real NCCL kernel would),
* picks one start time — the *latest* arrival, because a collective cannot
  begin until its slowest participant is ready — and
* releases every participant with the same (start, duration) pair, i.e. the
  same virtual completion time.

The gap between a rank's own arrival and the common start time is that
rank's *stall* (time spent waiting for stragglers), and the spread between
the earliest and latest arrival is the collective's *skew* — both are
recorded per event and aggregated into the
:class:`~repro.cluster.engine.ClusterReport`.

:class:`EventRendezvous` is the *event source* driving the
single-threaded :class:`~repro.cluster.scheduler.VirtualTimeScheduler`:
instead of blocking, an unresolved ``sync`` raises :class:`RankBlocked` so
the scheduler can park the rank's op cursor and advance another rank;
slots that resolve (or fail) are queued for
:meth:`~EventRendezvous.take_ready` so the scheduler knows exactly which
cursors to wake.

The group is an interned, identity-hashed
:class:`~repro.torchsim.distributed.ProcessGroup` of the fleet's table for
the rank's world (:attr:`EventRendezvous.group_tables`), so no map here
re-hashes a world-sized tuple of ranks per collective per rank.

Because a collective resolves only after **all** participants arrive, the
resolved schedule is deterministic regardless of cursor scheduling order;
:meth:`~EventRendezvous.stats` additionally sorts the event log
canonically (by group ranks, not creation order) before accumulating, so
the aggregated floats are byte-identical across schedules too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.hardware.network import CollectiveCostModel
# RankBlocked: raised by sync() below, defined next to the retry helper that catches it.
from repro.torchsim.distributed import GroupTables, ProcessGroup, RankBlocked

#: Identity of one collective call site: (interned group, op name).
#: Together with a per-rank, per-key sequence number this matches calls
#: across ranks the way NCCL matches them: by issue order within a group.
CollectiveKey = Tuple[ProcessGroup, str]


class CollectiveSlot(NamedTuple):
    """One matching slot: the ``seq``-th call of ``op`` over ``group``."""

    group: ProcessGroup
    op: str
    seq: int

    def __str__(self) -> str:
        return f"{self.op}[{self.seq}] over ranks {list(self.group.ranks)}"


class CollectiveSyncError(RuntimeError):
    """A collective could not be matched across the participating replicas
    (a rank finished or failed without issuing it, or the fleet's
    collective issue orders are cross-wired)."""


def normalize_op(op_name: str) -> str:
    """Collective name as matched across ranks (``c10d::all_reduce`` and
    ``all_reduce`` are the same operator)."""
    return op_name.split("::")[-1].lower()


@dataclass
class CollectiveEvent:
    """One resolved (matched and priced) collective."""

    key: CollectiveKey
    seq: int
    start_us: float
    duration_us: float
    #: rank -> virtual arrival time; the spread is the collective's skew.
    arrivals: Dict[int, float] = field(default_factory=dict)
    bytes_per_rank: float = 0.0

    @property
    def skew_us(self) -> float:
        if len(self.arrivals) < 2:
            return 0.0
        times = self.arrivals.values()
        return max(times) - min(times)

    def stall_us(self, rank: int) -> float:
        """Time ``rank`` spent waiting for the other participants."""
        arrival = self.arrivals.get(rank)
        if arrival is None:
            return 0.0
        return max(0.0, self.start_us - arrival)


@dataclass
class _Pending:
    """A collective some (but not yet all) participants have reached."""

    expected: frozenset
    arrivals: Dict[int, float] = field(default_factory=dict)
    bytes_per_rank: float = 0.0
    resolved: Optional[Tuple[float, Optional[float]]] = None
    failed: Optional[str] = None
    #: Participants that have not yet read the resolution; the slot is
    #: dropped once the last one consumes it, so the pending map stays
    #: bounded by in-flight collectives rather than growing with
    #: iterations x collectives.
    consumers: set = field(default_factory=set)


def _event_sort_key(event: CollectiveEvent):
    return (event.key[0], event.key[1], event.seq, sorted(event.arrivals.items()))


class EventRendezvous:
    """Non-blocking rendezvous: the event source of the virtual-time
    scheduler (:class:`~repro.cluster.scheduler.VirtualTimeScheduler`).

    :meth:`sync` never blocks.  When a slot cannot resolve yet it raises
    :class:`RankBlocked`; the scheduler parks the rank's cursor on the slot
    and advances another rank.  Slots that resolve or fail are queued and
    handed to the scheduler through :meth:`take_ready`, which wakes exactly
    the parked cursors — woken cursors *retry* the same ``sync`` call, and
    the retry is recognised (same in-flight slot per rank) so the per-group
    sequence number is not consumed twice.

    Parameters
    ----------
    cost_model:
        The shared interconnect model; each matched collective is priced
        through it exactly once.
    participants:
        The ranks being co-replayed.  A collective recorded over group
        ``G`` waits for ``G ∩ participants`` — replaying a subset of a
        fleet (symmetric data-parallel ranks) therefore still synchronises
        correctly among the replicas that exist.
    """

    def __init__(
        self,
        cost_model: CollectiveCostModel,
        participants: Sequence[int],
    ) -> None:
        self.cost_model = cost_model
        self.participants = frozenset(int(r) for r in participants)
        #: The fleet's process-group tables, one per world size; each rank's
        #: distributed context is built on its world's (cluster/scheduler.py).
        self.group_tables = GroupTables()
        self._seq: Dict[Tuple[int, ProcessGroup, str], int] = {}
        #: group -> the replayed members a slot over it waits for.
        self._expected: Dict[ProcessGroup, frozenset] = {}
        self._pending: Dict[CollectiveSlot, _Pending] = {}
        self._retired: set = set()
        self.events: List[CollectiveEvent] = []
        #: rank -> the slot its parked (to-be-retried) sync announced.
        self._inflight: Dict[int, CollectiveSlot] = {}
        #: Slots resolved/failed since the scheduler last drained.
        self._ready: List[CollectiveSlot] = []

    # ------------------------------------------------------------------
    def stats(
        self, measure_start_by_rank: Optional[Dict[int, float]] = None
    ) -> "RendezvousStats":
        """Aggregate view of the resolved collectives.

        With ``measure_start_by_rank`` given, only collectives inside the
        measured region count — an event is measured when every
        participant arrived at or after its own measurement window start —
        so warm-up iterations do not inflate stall, skew or the matched
        count (every other reported metric is windowed the same way).

        Events are accumulated in a *canonical* order (sorted by key,
        sequence and arrivals) rather than resolution order: float addition
        is not associative, and the append order of the event log depends
        on the cursor schedule.  Sorting first makes the aggregated
        stall/skew sums byte-identical across schedules.
        """
        events = list(self.events)
        if measure_start_by_rank is not None:
            events = [
                event
                for event in events
                if all(
                    arrival >= measure_start_by_rank.get(rank, 0.0)
                    for rank, arrival in event.arrivals.items()
                )
            ]
        events.sort(key=_event_sort_key)
        stall: Dict[int, float] = {rank: 0.0 for rank in self.participants}
        skews = []
        for event in events:
            skews.append(event.skew_us)
            for rank in event.arrivals:
                stall[rank] = stall.get(rank, 0.0) + event.stall_us(rank)
        return RendezvousStats(
            matched=len(events),
            max_skew_us=max(skews, default=0.0),
            mean_skew_us=(sum(skews) / len(skews)) if skews else 0.0,
            stall_us_by_rank=stall,
        )

    # ------------------------------------------------------------------
    def _price(self, slot: CollectiveSlot, bytes_per_rank: float) -> Optional[float]:
        if slot.group.size <= 1:
            # Degenerate singleton "collective": free of alpha-beta cost.
            return None
        return self.cost_model.collective_us(slot.op, bytes_per_rank, slot.group.size)

    def _record(
        self,
        slot: CollectiveSlot,
        start: float,
        duration: Optional[float],
        arrivals: Dict[int, float],
        bytes_per_rank: float,
    ) -> None:
        self.events.append(
            CollectiveEvent(
                key=(slot.group, slot.op),
                seq=slot.seq,
                start_us=start,
                duration_us=duration if duration is not None else 0.0,
                arrivals=arrivals,
                bytes_per_rank=bytes_per_rank,
            )
        )

    @staticmethod
    def _mismatch_message(slot: CollectiveSlot, pending: _Pending) -> str:
        missing = sorted(pending.expected - set(pending.arrivals))
        return (
            f"collective {slot} can never complete: "
            f"participant(s) {missing} finished their trace without issuing it "
            f"(arrived: {sorted(pending.arrivals)})"
        )


    # ------------------------------------------------------------------
    def sync(
        self,
        rank: int,
        op: str,
        group: ProcessGroup,
        bytes_per_rank: float,
        arrival_us: float,
    ) -> Tuple[float, Optional[float]]:
        """Announce a collective over ``group``, an interned group of one
        of :attr:`group_tables`; return ``(start_us, duration_us)`` when
        the slot is resolved, raise :class:`RankBlocked` when it is not."""
        op = normalize_op(op)
        slot = self._inflight.get(rank)
        if slot is None:
            # First announcement of this invocation: consume a sequence
            # number and register the arrival.  A retry after RankBlocked
            # skips this block — the op replays from the same cursor
            # position, so key and arrival are unchanged.
            expected = self._expected.get(group)
            if expected is None:
                expected = self._expected[group] = frozenset(group.ranks) & self.participants
            seq = self._seq.get((rank, group, op), 0)
            self._seq[(rank, group, op)] = seq + 1
            slot = CollectiveSlot(group, op, seq)
            if len(expected) <= 1:
                duration = self._price(slot, bytes_per_rank)
                self._record(slot, arrival_us, duration, {rank: arrival_us}, bytes_per_rank)
                return arrival_us, duration
            pending = self._pending.get(slot)
            if pending is None:
                pending = _Pending(expected=expected, consumers=set(expected))
                self._pending[slot] = pending
            pending.arrivals[rank] = arrival_us
            pending.bytes_per_rank = max(pending.bytes_per_rank, bytes_per_rank)
            self._inflight[rank] = slot
            if len(pending.arrivals) >= len(pending.expected) and (
                set(pending.arrivals) >= pending.expected
            ):
                start = max(pending.arrivals.values())
                duration = self._price(slot, pending.bytes_per_rank)
                pending.resolved = (start, duration)
                self._record(slot, start, duration, dict(pending.arrivals), pending.bytes_per_rank)
                self._ready.append(slot)
            elif self._retired and not (
                pending.expected - set(pending.arrivals) - self._retired
            ):
                pending.failed = self._mismatch_message(slot, pending)
                self._ready.append(slot)
        elif slot.group is not group or slot.op != op:
            raise CollectiveSyncError(
                f"rank {rank} retried collective {op} over ranks {list(group.ranks)} "
                f"while parked on {slot} — the replay diverged across retries"
            )
        pending = self._pending.get(slot)
        if pending is None:
            raise CollectiveSyncError(
                f"internal error: slot {slot.op}[{slot.seq}] consumed before rank {rank} read it"
            )
        if pending.failed is not None:
            self._inflight.pop(rank, None)
            raise CollectiveSyncError(pending.failed)
        if pending.resolved is None:
            raise RankBlocked(slot)
        resolved = pending.resolved
        self._inflight.pop(rank, None)
        pending.consumers.discard(rank)
        if not pending.consumers:
            del self._pending[slot]
        return resolved

    # ------------------------------------------------------------------
    def retire(self, rank: int) -> None:
        """A replica finished (or failed): any collective still waiting on
        it can never resolve — fail those waiters instead of hanging."""
        self._retired.add(int(rank))
        self._inflight.pop(int(rank), None)
        for slot, pending in self._pending.items():
            if pending.resolved is not None or pending.failed is not None:
                continue
            if not pending.arrivals:
                continue
            missing = pending.expected - set(pending.arrivals) - self._retired
            if not missing:
                pending.failed = self._mismatch_message(slot, pending)
                self._ready.append(slot)

    # ------------------------------------------------------------------
    def take_ready(self) -> List[CollectiveSlot]:
        """Slots resolved or failed since the last call (drains the queue).
        The scheduler wakes the cursors parked on each returned slot."""
        ready, self._ready = self._ready, []
        return ready

    def fail_pending(self, reason: str) -> None:
        """Fail every unresolved slot (scheduler deadlock breaker: every
        live cursor is parked, so no slot can ever resolve)."""
        for slot, pending in self._pending.items():
            if pending.resolved is None and pending.failed is None:
                pending.failed = (
                    f"collective {slot} cannot resolve: "
                    f"{reason} (arrived: {sorted(pending.arrivals)}, "
                    f"expected: {sorted(pending.expected)})"
                )
                self._ready.append(slot)


@dataclass
class RendezvousStats:
    """Scalar aggregates over all resolved collectives of one co-replay."""

    matched: int = 0
    max_skew_us: float = 0.0
    mean_skew_us: float = 0.0
    stall_us_by_rank: Dict[int, float] = field(default_factory=dict)
