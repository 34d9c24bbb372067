"""The single-threaded discrete-event cluster scheduler.

The legacy cluster engine fanned one worker thread per rank and let the
replicas block on each other inside a barrier rendezvous — correct, but
capped at thread-pool width and wasteful at scale (a 1024-rank fleet would
need 1024 live threads that spend most of their time parked on a condition
variable).  This module replays the same fleet on **one** thread:

* every rank is one :class:`~repro.core.pipeline.ReplayContext`, and its
  op cursor is the co-replay's one default
  :class:`~repro.core.pipeline.ReplayPipeline` driven as a step generator
  (:meth:`~repro.core.pipeline.ReplayPipeline.steps`) that *yields*
  whenever the rank's next collective cannot resolve yet;
* the shared :class:`~repro.cluster.rendezvous.EventRendezvous` raises
  :class:`~repro.cluster.rendezvous.RankBlocked` instead of blocking, and
  queues resolved/failed slots for the scheduler;
* :class:`VirtualTimeScheduler` advances runnable cursors, parks blocked
  ones on their slot, and wakes exactly the parked cursors whose slot
  resolved — classic discrete-event simulation over per-rank op cursors.

Every rank runs the single-rank default stages (vectorized fast path
included), so it pauses and resumes exactly as a single replay does: at an
iteration boundary of its execute stage, through its context's
``pause_check``/``resume_from``.  Only its runtime differs: it joins the
fleet's rendezvous and group tables before the pipeline starts, so
``init-comms`` only resolves the recorded process groups.  Each collective goes through
:func:`~repro.torchsim.distributed.retry_collective`, which rolls the
runtime back to the op boundary and yields the blocked slot; the cursor
parks on it and re-executes the op verbatim once the slot resolves.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.cluster.rendezvous import CollectiveSlot, EventRendezvous, RankBlocked
from repro.core.pipeline import (
    CheckpointError,
    ReplayContext,
    ReplayPipeline,
    make_replay_runtime,
)

#: Scheduler pick function: ``(runnable ranks, step index) -> index`` into
#: the runnable list.  Injectable for the insertion-order-independence
#: property test; ``None`` means FIFO.
PickFunction = Callable[[List[int], int], int]


def _rank_steps(
    context: ReplayContext, pipeline: ReplayPipeline, rendezvous: EventRendezvous
) -> Iterator[RankBlocked]:
    """One rank's replay as a resumable op cursor: the pipeline's step
    generator on a runtime joined to the fleet's rendezvous.

    The runtime is created here, inside the rank's failure boundary, so a
    config the runtime rejects fails this rank like any other replay
    error.  However the generator ends — finished, failed or closed — the
    rank retires from the rendezvous.
    """
    try:
        context.runtime = make_replay_runtime(
            context.trace, context.config, group_tables=rendezvous.group_tables
        )
        if context.runtime.dist is not None:
            context.runtime.dist.rendezvous = rendezvous
        yield from pipeline.steps(context)
    finally:
        rendezvous.retire(context.config.rank)


class VirtualTimeScheduler:
    """Advances a fleet of rank cursors to completion on one thread.

    The loop is event-driven: advance a runnable cursor until it parks on a
    collective slot (or finishes), drain the rendezvous's newly
    resolved/failed slots, wake exactly the cursors parked on them, repeat.
    When no cursor is runnable but some are still parked, the fleet's
    collective orders are cross-wired (rank A waits on a collective rank B
    will only reach after one A has not issued) — the rendezvous fails every
    unresolved slot so the parked cursors error out instead of hanging; no
    wall-clock timeout is needed.

    The resolved virtual-time schedule is independent of the pick order
    (each rank's clock advances deterministically between collectives, and
    a slot resolves at the max arrival regardless of who arrives last), so
    any ``pick`` function yields a byte-identical
    :class:`~repro.cluster.engine.ClusterReport` — the hypothesis suite
    (``tests/test_property_scheduler.py``) exercises exactly this.
    """

    def __init__(
        self,
        contexts: Iterable[ReplayContext],
        pipeline: ReplayPipeline,
        rendezvous: EventRendezvous,
        pick: Optional[PickFunction] = None,
        telemetry=None,
    ) -> None:
        self.contexts = list(contexts)
        self.pipeline = pipeline
        self.rendezvous = rendezvous
        self.pick = pick
        #: Optional :class:`~repro.telemetry.Tracer`.  Park/wake/rendezvous
        #: transitions become instant events on the ``scheduler`` category;
        #: ``None`` (the default) keeps the loop free of telemetry work.
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def run(self) -> Dict[int, str]:
        """Drive every cursor to completion; returns ``{rank: error}`` for
        ranks that failed (empty dict = clean fleet).  Results land on the
        contexts themselves.  A rank's ``ReplayPaused`` or
        ``CheckpointError`` ends the whole fleet; the ``finally`` block
        closes every other cursor, retiring its rank."""
        contexts = {context.config.rank: context for context in self.contexts}
        cursors = {
            rank: _rank_steps(context, self.pipeline, self.rendezvous)
            for rank, context in contexts.items()
        }
        runnable = deque(sorted(cursors))
        parked: Dict[CollectiveSlot, List[int]] = {}
        errors: Dict[int, str] = {}
        outstanding = set(cursors)
        step = 0
        telemetry = self.telemetry if self.telemetry is not None and self.telemetry.enabled else None
        run_span = (
            telemetry.begin("scheduler:run", "scheduler", ranks=len(cursors))
            if telemetry is not None
            else None
        )
        try:
            while outstanding:
                if not runnable:
                    # Every live cursor is parked: cross-wired collective
                    # orders.  Fail the unresolved slots; the woken cursors
                    # raise CollectiveSyncError on retry.
                    self.rendezvous.fail_pending(
                        "every runnable replica is parked on another collective "
                        "(collective issue orders are cross-wired across ranks)"
                    )
                    self._wake(parked, runnable)
                    if not runnable:
                        # Nothing to wake either — cursors vanished without
                        # finishing; record the survivors instead of spinning.
                        if telemetry is not None:
                            telemetry.event(
                                "deadlock", "scheduler", step=step, ranks=sorted(outstanding)
                            )
                        for rank in sorted(outstanding):
                            errors.setdefault(rank, "deadlocked in the event scheduler")
                        break
                    continue
                if self.pick is not None:
                    index = self.pick(list(runnable), step) % len(runnable)
                    rank = runnable[index]
                    del runnable[index]
                else:
                    rank = runnable.popleft()
                step += 1
                context = contexts[rank]
                if context.hooks:
                    context.notify("on_resume")
                try:
                    blocked = next(cursors[rank])
                except StopIteration:
                    outstanding.discard(rank)
                    if telemetry is not None:
                        telemetry.event(
                            "finish", "scheduler", correlation={"rank": rank}, step=step
                        )
                except CheckpointError:
                    raise  # a resume mismatch fails the fleet, not one rank
                except Exception as error:  # noqa: BLE001 - aggregated per rank
                    outstanding.discard(rank)
                    errors[rank] = f"{type(error).__name__}: {error}"
                    if telemetry is not None:
                        telemetry.event(
                            "rank-error",
                            "scheduler",
                            correlation={"rank": rank},
                            step=step,
                            error=errors[rank],
                        )
                else:
                    parked.setdefault(blocked.slot, []).append(rank)
                    if context.hooks:
                        context.notify("on_park")
                    if telemetry is not None:
                        telemetry.event(
                            "park",
                            "scheduler",
                            correlation={"rank": rank},
                            step=step,
                            slot=str(blocked.slot),
                        )
                self._wake(parked, runnable)
        finally:
            for rank in outstanding:
                cursors[rank].close()
            if telemetry is not None:
                run_span.attributes["steps"] = step
                run_span.attributes["errors"] = len(errors)
                telemetry.end(run_span)
        return errors

    # ------------------------------------------------------------------
    def _wake(self, parked: Dict[CollectiveSlot, List[int]], runnable: deque) -> None:
        telemetry = self.telemetry if self.telemetry is not None and self.telemetry.enabled else None
        for slot in self.rendezvous.take_ready():
            if telemetry is not None:
                telemetry.event("rendezvous", "scheduler", slot=str(slot))
            for rank in parked.pop(slot, ()):
                runnable.append(rank)
                if telemetry is not None:
                    telemetry.event("wake", "scheduler", correlation={"rank": rank}, slot=str(slot))
