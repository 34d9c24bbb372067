"""Job execution: worker threads, cooperative pause, exactly-once points.

The executor is where a :class:`~repro.daemon.jobs.JobRecord` meets the
service layer.  A **sweep** job expands to its grid points
(:class:`~repro.service.sweep.SweepRunner` — same expansion as the inline
CLI, against the daemon's shared repository for the job's root) and
prices them one at a time.  A point takes four steps: an in-flight
claim, one pinned :meth:`~repro.service.cache.ResultCache.get`, one
:func:`~repro.service.batch.replay_job` with the job's ``pause_check``
(the same load, verify and replay path a serial batch takes, so a pause
lands at an op-program iteration boundary with a
:class:`~repro.core.pipeline.ReplayCheckpoint` in hand), and
:func:`~repro.service.batch.store_result`, which writes the cache entry
with the provenance a batch writes.  So a fresh point costs one cache
lookup, and counts one miss.

A **cluster** job hands the same ``pause_check`` to every rank of
:meth:`~repro.cluster.ClusterReplayer.replay`.  Both kinds persist one
:class:`~repro.daemon.jobs.JobSnapshot` shape and resume by verified,
byte-identical re-execution; a malformed snapshot fails the job.

Multi-tenant guarantees enforced here:

* **Exactly-once pricing** — concurrent jobs that share a (trace, config)
  point coordinate through the :class:`InflightRegistry`: the first
  claimant replays, everyone else waits and then reads the result cache.
  Two clients submitting overlapping sweeps replay each unique point once.
* **Pinned inputs** — every cache key a running job has touched is
  :meth:`~repro.service.cache.ResultCache.pin`-ned until the job finishes
  or pauses, so LRU/TTL eviction can never pull a result out from under a
  job that already resolved it.
* **Pause beats neither completion nor correctness** — a pause granted
  mid-point carries the point's checkpoint in the job snapshot; completed
  points ride in the snapshot too (with their summaries), so resume never
  re-prices them even if the cache evicted the entries meanwhile.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.cluster import ClusterReplayer
from repro.core.pipeline import ReplayCheckpoint, ReplayPaused
from repro.core.replayer import ReplayConfig, ReplayResultSummary
from repro.daemon.jobs import JobRecord, JobSnapshot
from repro.service.batch import ReplayJob, error_details, replay_job, store_result
from repro.service.cache import ResultCache
from repro.service.sweep import SweepRunner, SweepSpec

if TYPE_CHECKING:
    from repro.daemon.daemon import TraceRepositories

#: Executor outcome: (status, value) where status selects the job's next
#: state — "completed" (value: result payload), "paused" (value: snapshot),
#: "failed" (value: error-details dict), "cancelled" (value: None).
Outcome = Tuple[str, Optional[Dict[str, Any]]]


class JobControl:
    """Runtime-only control surface of one job: the pause/cancel flags the
    replay polls at its checkpoint boundaries."""

    def __init__(self) -> None:
        self.pause = threading.Event()
        self.cancel = threading.Event()

    def interrupted(self) -> bool:
        """The ``pause_check`` every replay of the job polls."""
        return self.pause.is_set() or self.cancel.is_set()


class InflightRegistry:
    """Cross-job registry of cache keys currently being computed.

    ``claim`` either makes the caller the computing owner (returns
    ``mine=True``) or hands back the owner's completion event to wait on.
    The owner must ``release`` in a ``finally`` — waiters then claim again
    and read the cache (after a computation failure they find a miss and
    replay the point themselves, so a failed owner cannot wedge them).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: Dict[str, threading.Event] = {}

    def claim(self, key: str) -> Tuple[threading.Event, bool]:
        with self._lock:
            event = self._events.get(key)
            if event is not None:
                return event, False
            event = threading.Event()
            self._events[key] = event
            return event, True

    def release(self, key: str) -> None:
        with self._lock:
            event = self._events.pop(key, None)
        if event is not None:
            event.set()


# ----------------------------------------------------------------------
# Sweep jobs
# ----------------------------------------------------------------------
def expand_sweep_points(
    payload: Dict[str, Any], repositories: Optional["TraceRepositories"] = None
) -> List[ReplayJob]:
    """The job's grid points, in deterministic order (same expansion the
    inline ``repro sweep`` uses).

    ``repositories`` is the daemon's shared map, so a job re-reads only the
    trace files that changed since any job last discovered its root.  The
    one-argument form (a reference replay outside the daemon) uses a
    throwaway map and so discovers the root from scratch.
    """
    spec = SweepSpec(
        traces=payload.get("traces"),
        devices=list(payload.get("devices") or ("A100",)),
        axes={name: list(values) for name, values in (payload.get("axes") or {}).items()},
        base=ReplayConfig.from_dict(payload.get("base") or {}),
    )
    if repositories is None:
        from repro.daemon.daemon import TraceRepositories  # daemon.py imports this module

        repositories = TraceRepositories()
    return SweepRunner(repositories.get(payload["repo"])).jobs_for(spec)


def run_sweep_job(
    record: JobRecord,
    control: JobControl,
    cache: Optional[ResultCache],
    inflight: Optional[InflightRegistry],
    repositories: "TraceRepositories",
    tracer: Optional[Any] = None,
) -> Outcome:
    """Replay every grid point, honouring a prior snapshot and the control
    flags; see the module docstring for the guarantees."""
    try:
        snapshot = _snapshot_of(record)
        points = expand_sweep_points(record.spec.payload, repositories)
    except Exception as error:  # noqa: BLE001 - snapshot and spec errors fail the job
        return "failed", error_details(error)

    completed = snapshot.completed
    pinned: List[str] = []
    try:
        for point in points:
            if point.label in completed:
                continue
            if control.interrupted():
                return _paused(control, JobSnapshot("sweep", completed))
            resume = snapshot.checkpoint if point.label == snapshot.pending_label else None
            span = None
            if tracer is not None and tracer.enabled:
                span = tracer.begin(
                    f"point:{point.label}", "daemon", sweep_point=point.label
                )
            try:
                status, value = _run_point(point, control, cache, inflight, resume, pinned)
            except ReplayPaused as paused:
                _end_span(tracer, span, "paused")
                return _paused(
                    control, JobSnapshot("sweep", completed, point.label, paused.checkpoint)
                )
            _end_span(tracer, span, status)
            if status in ("cancelled", "paused"):
                return _paused(control, JobSnapshot("sweep", completed))
            if status == "failed":
                return "failed", value
            assert isinstance(value, ReplayResultSummary)
            completed[point.label] = {
                "cache_key": point.cache_key,
                "trace": point.trace_name,
                "device": point.config.device,
                "cached": status == "cached",
                "summary": value.to_dict(),
            }
        return "completed", _sweep_result(points, completed)
    finally:
        if cache is not None:
            for key in pinned:
                cache.unpin(key)


def _snapshot_of(record: JobRecord) -> JobSnapshot:
    """The snapshot a job resumes from (empty for a fresh job); raises
    :class:`~repro.core.pipeline.CheckpointError` when it is malformed."""
    if record.snapshot is None:
        return JobSnapshot(record.spec.kind)
    return JobSnapshot.from_dict(record.snapshot)


def _paused(control: JobControl, snapshot: JobSnapshot) -> Outcome:
    """The outcome of an interrupted job: a cancel wins over the snapshot."""
    if control.cancel.is_set():
        return "cancelled", None
    return "paused", snapshot.to_dict()


def _end_span(tracer: Optional[Any], span: Optional[Any], status: str) -> None:
    if tracer is not None:
        if span is not None:
            span.attributes["status"] = status
        tracer.end(span)


def _run_point(
    point: ReplayJob,
    control: JobControl,
    cache: Optional[ResultCache],
    inflight: Optional[InflightRegistry],
    resume: Optional[ReplayCheckpoint],
    pinned: List[str],
) -> Tuple[str, Any]:
    """One grid point: in-flight claim, one cache read, then replay and
    store.

    The claim comes first, so no other job can store the point between
    this job's cache miss and its replay: each unique point is replayed
    once and costs one cache lookup.  Returns ("cached" | "replayed",
    summary), ("failed", error details), ("cancelled" | "paused", None) —
    or raises :class:`~repro.core.pipeline.ReplayPaused` from inside the
    replay.
    """
    key = point.cache_key
    if cache is not None and key not in pinned:
        cache.pin(key)
        pinned.append(key)
    while inflight is not None:
        event, mine = inflight.claim(key)
        if mine:
            break
        # Another job is pricing this exact point; wait for it, but keep
        # honouring our own pause/cancel while parked.
        while not event.wait(timeout=0.05):
            if control.cancel.is_set():
                return "cancelled", None
            if control.pause.is_set():
                return "paused", None
    try:
        summary = cache.get(key) if cache is not None else None
        if summary is not None:
            return "cached", summary
        result = replay_job(point, pause_check=control.interrupted, resume_from=resume)
        if result.ok and cache is not None:
            store_result(cache, result)
    finally:
        if inflight is not None:
            inflight.release(key)
    if not result.ok:
        return "failed", {
            "error": result.error,
            "error_type": result.error_type,
            "traceback": result.traceback,
        }
    return "replayed", result.summary


def _sweep_result(
    points: List[ReplayJob], completed: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """The completed job's result payload, rows in grid order."""
    rows = [
        {
            "label": point.label,
            "trace": completed[point.label]["trace"],
            "device": completed[point.label]["device"],
            "cached": completed[point.label]["cached"],
            "cache_key": completed[point.label]["cache_key"],
            "summary": completed[point.label]["summary"],
        }
        for point in points
    ]
    cached = sum(1 for row in rows if row["cached"])
    return {
        "kind": "sweep",
        "points": rows,
        "total": len(rows),
        "cached": cached,
        "replayed": len(rows) - cached,
    }


# ----------------------------------------------------------------------
# Cluster jobs
# ----------------------------------------------------------------------
def run_cluster_job(
    record: JobRecord,
    control: JobControl,
    repositories: "TraceRepositories",
    tracer: Optional[Any] = None,
) -> Outcome:
    """Co-replay the fleet under the daemon's shared repository for the
    job's ``trace_dir``; a pause lands at the next iteration boundary of
    any rank, and resume re-executes the fleet, verifying the paused rank's
    checkpoint (deterministic, so byte-identical)."""
    payload = record.spec.payload
    try:
        snapshot = _snapshot_of(record)
        config = ReplayConfig.from_dict(payload.get("config") or {})
        fleet = ClusterReplayer.load_fleet(repositories.get(payload["trace_dir"]))
    except Exception as error:  # noqa: BLE001
        return "failed", error_details(error)
    # Lifecycle spans only: the full per-rank Gantt would accumulate
    # unbounded on a long-lived daemon tracer, so the replayer's tracer
    # stays unset here (export the Gantt via the CLI / ClusterSession).
    span = None
    if tracer is not None and tracer.enabled:
        span = tracer.begin("cluster:replay", "daemon", ranks=len(fleet))
    try:
        report = ClusterReplayer(config).replay(
            fleet, pause_check=control.interrupted, resume_from=snapshot.checkpoint
        )
    except ReplayPaused as paused:
        _end_span(tracer, span, "paused")
        return _paused(control, JobSnapshot("cluster", checkpoint=paused.checkpoint))
    except Exception as error:  # noqa: BLE001
        _end_span(tracer, span, "failed")
        return "failed", error_details(error)
    _end_span(tracer, span, "completed")
    return "completed", {"kind": "cluster", "report": report.to_dict()}


def run_job(
    record: JobRecord,
    control: JobControl,
    cache: Optional[ResultCache],
    inflight: Optional[InflightRegistry],
    repositories: "TraceRepositories",
    tracer: Optional[Any] = None,
) -> Outcome:
    """Dispatch on the job kind."""
    if record.spec.kind == "sweep":
        return run_sweep_job(record, control, cache, inflight, repositories, tracer=tracer)
    return run_cluster_job(record, control, repositories, tracer=tracer)


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
class JobExecutor:
    """Worker threads draining the daemon's queue.

    The threads only pop ids and hand them to ``execute`` (the daemon's
    transition-managing entry point); all job state lives there.
    """

    def __init__(self, queue, execute, workers: int = 2) -> None:
        self.queue = queue
        self.execute = execute
        self.workers = max(1, int(workers))
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> None:
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name=f"repro-daemon-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _loop(self) -> None:
        while not self._stop.is_set():
            job_id = self.queue.pop(timeout=0.2)
            if job_id is not None:
                self.execute(job_id)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
