"""The daemon core: one object tying store, queue, cache and executor.

:class:`ReplayDaemon` is the long-running service behind ``python -m repro
serve`` — and a perfectly usable in-process object (the test suite drives
it directly; the HTTP layer in :mod:`repro.daemon.server` is a thin
wrapper over its public methods).  Responsibilities:

* **Lifecycle** — ``submit`` / ``pause`` / ``resume`` / ``cancel`` apply
  the job state machine under one lock, write-through to the
  :class:`~repro.daemon.store.JobStore`, and wake any ``wait``-ers.
* **Multi-tenant hygiene** — every job belongs to the client that
  submitted it; operations on someone else's job raise
  :class:`JobAccessError` (the HTTP layer maps it to 403).  Scheduling is
  fair across owners (:class:`~repro.daemon.queue.JobQueue`), and the
  shared :class:`~repro.service.cache.ResultCache` is bounded with
  LRU+TTL eviction that never touches a running job's pinned inputs.
* **Shared trace repositories** — jobs over the same root share one
  :class:`~repro.service.repository.TraceRepository`
  (:class:`TraceRepositories`, at most :data:`MAX_REPOSITORIES` roots),
  and this module is the only place a payload path becomes one.  A sweep
  job re-reads only the trace files that changed; the replay still
  re-checks each trace's digest, so a rewrite between discovery and
  replay fails the job instead of caching a stale result.  A cluster job
  loads its fleet from the repository for its ``trace_dir``.
* **Restart recovery** — construction replays the store: terminal jobs
  are served from their records, paused jobs keep their snapshots
  (resume works across restarts), and jobs that were mid-flight when the
  process died are requeued.
* **Bounded memory** — every job that has not finished stays in memory,
  plus the newest :data:`MAX_TERMINAL_RECORDS` finished ones; the store
  holds every record, and an older one is read back from it when a client
  asks (after its id is checked against :func:`~repro.daemon.jobs.is_job_id`,
  since the store names files after ids).  The per-process tables every
  replay shares — parsed traces, generated index payloads and operator
  programs — are bounded by their own modules; ``/health`` reports all of
  them.

A replay is a pure function of (trace, config), so everything the daemon
serves — results, resumed jobs, cache hits — is byte-identical to what an
uninterrupted inline run would produce.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core import vectorize
from repro.core.tensors import index_table_stats
from repro.daemon.executor import InflightRegistry, JobControl, JobExecutor, run_job
from repro.daemon.jobs import (
    DAEMON_SCHEMA_VERSION,
    JOB_STATES,
    JobRecord,
    JobSpec,
    JobStateError,
    is_job_id,
    job_sort_key,
    new_job_id,
)
from repro.daemon.queue import JobQueue
from repro.daemon.store import JobStore
from repro.service.cache import ResultCache
from repro.service.repository import TraceRepository, trace_table_stats
from repro.telemetry import MetricsRegistry, Tracer
from repro.version import __version__

#: Job states whose entry increments a lifecycle counter.
_TRANSITION_COUNTERS = {
    "completed": "repro_jobs_completed_total",
    "failed": "repro_jobs_failed_total",
    "cancelled": "repro_jobs_cancelled_total",
    "paused": "repro_jobs_paused_total",
}


#: Trace repositories the daemon keeps open.  Roots come from client
#: payloads, so the map is bounded; the least recently used root goes first.
MAX_REPOSITORIES = 64

#: Lifecycle spans the daemon's tracer keeps (the newest ones), so its
#: memory does not grow with the number of jobs it has run.
MAX_TRACE_RECORDS = 1024

#: Finished (terminal) job records the daemon keeps in memory, the most
#: recently finished ones; older ones are read back from the store.  A
#: record holds its spec and result payloads: 2.5 to 4.4 KiB for a
#: one-point sweep, so the bound holds about 1 MiB.
MAX_TERMINAL_RECORDS = 256

#: ``/health`` table number (table, field) -> the ``/metrics`` gauge that
#: reports it, and the gauge's help text.
_TABLE_GAUGES = {
    ("verified_traces", "traces"): ("repro_verified_traces", "Parsed traces the process keeps."),
    ("verified_traces", "bytes"): (
        "repro_verified_trace_bytes", "File bytes of the parsed traces the process keeps."
    ),
    ("index_payloads", "arrays"): (
        "repro_index_payloads", "Generated embedding-index arrays the process keeps."
    ),
    ("index_payloads", "bytes"): (
        "repro_index_payload_bytes", "Bytes of the index arrays the process keeps."
    ),
    ("programs", "environments"): (
        "repro_program_environments", "Environments of the operator program table."
    ),
    ("programs", "programs"): ("repro_programs", "Operator programs the table holds."),
    ("job_records", "in_memory"): (
        "repro_job_records_in_memory", "Job records held in memory."
    ),
    ("job_records", "on_disk"): ("repro_job_records_on_disk", "Job records in the store."),
}


class TraceRepositories:
    """One :class:`~repro.service.repository.TraceRepository` per root,
    shared by every sweep and cluster job: a sweep's discovery re-reads
    only the files that changed since the root was last scanned.
    Thread-safe; holds at most :data:`MAX_REPOSITORIES` roots (least
    recently used evicted)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._repositories: "OrderedDict[Path, TraceRepository]" = OrderedDict()

    def get(self, root: Union[str, Path]) -> TraceRepository:
        key = Path(root)
        with self._lock:
            repository = self._repositories.get(key)
            if repository is None:
                repository = self._repositories[key] = TraceRepository(key)
                if len(self._repositories) > MAX_REPOSITORIES:
                    self._repositories.popitem(last=False)
            else:
                self._repositories.move_to_end(key)
            return repository

    def stats(self) -> Dict[str, int]:
        """Open roots, and the invalid files their last scans skipped."""
        with self._lock:
            repositories = list(self._repositories.values())
        return {
            "open": len(repositories),
            "invalid": sum(len(repository.invalid) for repository in repositories),
        }


class JobAccessError(PermissionError):
    """The requesting client does not own the job."""


class UnknownJobError(KeyError):
    """No job with the given id."""

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return self.args[0] if self.args else ""


class ReplayDaemon:
    """The replay service: async job queue over the batch/cluster layers.

    Parameters
    ----------
    state_dir:
        Where job records (and, by default, the result cache) live; the
        daemon recovers from whatever it finds there.
    cache_dir / cache_max_entries / cache_ttl_s:
        Result-cache location and bounds (LRU + TTL; pinned keys of
        running jobs are never evicted).
    workers:
        Executor thread count — concurrent jobs, not concurrent points;
        each job replays its points serially so it stays pausable.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        cache_dir: Optional[Union[str, Path]] = None,
        cache_max_entries: Optional[int] = None,
        cache_ttl_s: Optional[float] = None,
        workers: int = 2,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.store = JobStore(self.state_dir)
        self.queue = JobQueue()
        self.cache = ResultCache(
            cache_dir if cache_dir is not None else self.state_dir / "cache",
            max_entries=cache_max_entries,
            ttl_s=cache_ttl_s,
        )
        self.inflight = InflightRegistry()
        self.repositories = TraceRepositories()
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        #: Every unfinished job's record, and the newest finished ones.
        self._records: Dict[str, JobRecord] = {}
        #: Ids of the finished records in memory, earliest finished first.
        self._finished: "OrderedDict[str, None]" = OrderedDict()
        #: state -> finished records dropped from memory (the store has them).
        self._dropped: Dict[str, int] = {}
        self._controls: Dict[str, JobControl] = {}
        self._seq = 0
        self._started_monotonic = time.monotonic()
        #: Service metrics, exposed as Prometheus text on ``GET /metrics``
        #: and (counter totals) inside ``/health``.
        self.metrics = MetricsRegistry()
        #: Job lifecycle spans (one per executed job, correlated by
        #: job id / owner / kind) land here; the newest are kept.
        self.tracer = Tracer(max_records=MAX_TRACE_RECORDS)
        self._init_metrics()
        self.executor = JobExecutor(self.queue, self._execute, workers=workers)
        self._recover()

    def _init_metrics(self) -> None:
        """Register every metric up front so ``/metrics`` exposes a stable
        set from the first scrape (zeros instead of missing series)."""
        self.metrics.counter(
            "repro_jobs_submitted_total", "Jobs accepted by submit()."
        )
        self.metrics.counter(
            "repro_jobs_completed_total", "Jobs that reached the completed state."
        )
        self.metrics.counter(
            "repro_jobs_failed_total", "Jobs that reached the failed state."
        )
        self.metrics.counter(
            "repro_jobs_cancelled_total", "Jobs that reached the cancelled state."
        )
        self.metrics.counter(
            "repro_jobs_paused_total", "Pause acknowledgements (entries into paused)."
        )
        self.metrics.counter(
            "repro_jobs_resumed_total", "Paused jobs requeued by resume()."
        )
        self.metrics.gauge("repro_jobs_running", "Jobs currently executing.")
        self.metrics.gauge("repro_queue_depth", "Jobs waiting in the queue.")
        for name, help_text in _TABLE_GAUGES.values():
            self.metrics.gauge(name, help_text)
        self.metrics.histogram(
            "repro_job_duration_seconds", "Wall time of one executor run of a job."
        )

    def _count_transition(self, state: str) -> None:
        name = _TRANSITION_COUNTERS.get(state)
        if name is not None:
            self.metrics.counter(name).inc()

    # ------------------------------------------------------------------
    def _keep(self, record: JobRecord) -> None:
        """Hold ``record`` in memory (a new job, a recovered one, or one that
        just finished): a finished record joins the newest
        :data:`MAX_TERMINAL_RECORDS`, and the earliest finished beyond them
        leaves memory.  Call with the lock held."""
        self._records[record.id] = record
        if record.terminal:
            self._finished[record.id] = None
            while len(self._finished) > MAX_TERMINAL_RECORDS:
                dropped = self._records.pop(self._finished.popitem(last=False)[0])
                self._dropped[dropped.state] = self._dropped.get(dropped.state, 0) + 1

    def _recover(self) -> None:
        for record in self.store.recover():
            self._keep(record)
            self._seq = max(self._seq, record.seq)
            if record.state == "queued":
                self.queue.push(record.priority, record.owner, record.seq, record.id)

    def start(self) -> None:
        self.executor.start()

    def stop(self) -> None:
        self.executor.stop()

    def __enter__(self) -> "ReplayDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client operations (the REST surface)
    # ------------------------------------------------------------------
    def submit(self, owner: str, spec: JobSpec, priority: int = 0) -> JobRecord:
        if not owner:
            raise ValueError("a job must be submitted with a client (owner) id")
        with self._changed:
            self._seq += 1
            record = JobRecord(
                id=new_job_id(),
                owner=owner,
                spec=spec,
                priority=int(priority),
                seq=self._seq,
            )
            self._keep(record)
            self.store.save(record)
            self.queue.push(record.priority, record.owner, record.seq, record.id)
            self.metrics.counter("repro_jobs_submitted_total").inc()
            self._changed.notify_all()
            return record

    def get(self, job_id: str, owner: Optional[str] = None) -> JobRecord:
        """The job record; with ``owner`` given, enforce ownership.  A
        finished record that left memory is read back from the store (it
        never changes again), once ``job_id`` has the form of a job id."""
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            record = self.store.load(job_id) if is_job_id(job_id) else None
            if record is None:
                raise UnknownJobError(f"no job {job_id!r}")
        if owner is not None and record.owner != owner:
            raise JobAccessError(
                f"job {job_id} belongs to {record.owner!r}, not {owner!r}"
            )
        return record

    def list_jobs(self, owner: Optional[str] = None) -> List[JobRecord]:
        """Every job (``owner``'s only, when given), in submission order;
        finished records that left memory are read back from the store."""
        with self._lock:
            records = dict(self._records)
            dropped = bool(self._dropped)
        if dropped:
            for job_id in self.store.ids():
                if job_id not in records:
                    record = self.store.load(job_id)
                    if record is not None:
                        records[job_id] = record
        return sorted(
            (record for record in records.values() if owner is None or record.owner == owner),
            key=job_sort_key,
        )

    def pause(self, job_id: str, owner: Optional[str] = None) -> JobRecord:
        """Request a pause; acknowledged at the next checkpoint boundary."""
        with self._changed:
            record = self.get(job_id, owner)
            if record.state == "queued":
                self.queue.remove(job_id)
                record.transition("paused")
                self._count_transition("paused")
            elif record.state == "running":
                control = self._controls.get(job_id)
                if control is not None:
                    control.pause.set()
                record.transition("pausing")
            elif record.state in ("pausing", "paused"):
                return record  # idempotent
            else:
                raise JobStateError(f"job {job_id} cannot pause from {record.state!r}")
            self.store.save(record)
            self._changed.notify_all()
            return record

    def resume(self, job_id: str, owner: Optional[str] = None) -> JobRecord:
        """Requeue a paused job; its snapshot rides along, so completed
        work is never repriced (and works across daemon restarts)."""
        with self._changed:
            record = self.get(job_id, owner)
            if record.state != "paused":
                raise JobStateError(f"job {job_id} cannot resume from {record.state!r}")
            record.transition("queued")
            self._controls.pop(job_id, None)  # fresh flags on the next run
            self.metrics.counter("repro_jobs_resumed_total").inc()
            self.store.save(record)
            self.queue.push(record.priority, record.owner, record.seq, record.id)
            self._changed.notify_all()
            return record

    def cancel(self, job_id: str, owner: Optional[str] = None) -> JobRecord:
        with self._changed:
            record = self.get(job_id, owner)
            if record.state == "queued":
                self.queue.remove(job_id)
                record.transition("cancelled")
                record.snapshot = None
                self._count_transition("cancelled")
                self.store.save(record)
                self._keep(record)
            elif record.state in ("running", "pausing"):
                control = self._controls.get(job_id)
                if control is not None:
                    control.cancel.set()
                # State lands on "cancelled" when the replay acknowledges.
            elif record.state == "paused":
                record.transition("cancelled")
                record.snapshot = None
                self._count_transition("cancelled")
                self.store.save(record)
                self._keep(record)
            elif record.state != "cancelled":
                raise JobStateError(f"job {job_id} cannot cancel from {record.state!r}")
            self._changed.notify_all()
            return record

    def result(self, job_id: str, owner: Optional[str] = None) -> Dict[str, Any]:
        record = self.get(job_id, owner)
        if record.state != "completed" or record.result is None:
            raise JobStateError(
                f"job {job_id} has no result (state: {record.state!r})"
            )
        return record.result

    def analysis(self, job_id: str, owner: Optional[str] = None) -> Dict[str, Any]:
        """Insights diagnosis of a completed job's stored result.

        Cluster jobs get critical-path attribution from the persisted
        report; sweeps get a spread/outlier summary — without the tenant
        downloading any traces.  Raises :class:`JobStateError` until the
        job completes, like :meth:`result`.
        """
        result = self.result(job_id, owner)
        from repro.insights import analyze_job_result

        return analyze_job_result(result)

    def snapshot_of(self, job_id: str, owner: Optional[str] = None) -> Dict[str, Any]:
        record = self.get(job_id, owner)
        if record.snapshot is None:
            raise JobStateError(
                f"job {job_id} has no snapshot (state: {record.state!r}; snapshots "
                "are captured when a pause is acknowledged)"
            )
        return record.snapshot

    def health(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = dict(self._dropped)
            for record in self._records.values():
                states[record.state] = states.get(record.state, 0) + 1
        return {
            "schema_version": DAEMON_SCHEMA_VERSION,
            "version": __version__,
            "jobs": states,
            # Zero-filled per-state depths: monitoring reads a stable shape
            # instead of states appearing as jobs first reach them.
            "jobs_by_state": {state: states.get(state, 0) for state in JOB_STATES},
            "uptime_s": time.monotonic() - self._started_monotonic,
            "queue_depth": len(self.queue),
            "queue_by_owner": self.queue.depth_by_owner(),
            "workers": self.executor.workers,
            "cache": self.cache.stats(),
            "repositories": self.repositories.stats(),
            "telemetry": self.metrics.counter_totals(),
            **self._table_stats(),
        }

    def _table_stats(self) -> Dict[str, Dict[str, int]]:
        """What the process keeps for later jobs, each bounded by a module
        constant (``/health`` reports it, ``/metrics`` as gauges)."""
        with self._lock:
            in_memory = len(self._records)
            dropped = sum(self._dropped.values())
        return {
            "verified_traces": trace_table_stats(),
            "index_payloads": index_table_stats(),
            "programs": vectorize.table_stats(),
            "job_records": {"in_memory": in_memory, "on_disk": in_memory + dropped},
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the service metrics (the body of
        the HTTP layer's ``GET /metrics``); point-in-time gauges are
        refreshed at scrape time."""
        with self._lock:
            running = sum(
                1 for record in self._records.values() if record.state == "running"
            )
        self.metrics.gauge("repro_jobs_running").set(running)
        self.metrics.gauge("repro_queue_depth").set(len(self.queue))
        tables = self._table_stats()
        for (table, field_name), (name, _) in _TABLE_GAUGES.items():
            self.metrics.gauge(name).set(tables[table][field_name])
        return self.metrics.render_prometheus()

    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout: float = 60.0,
        until: tuple = ("completed", "failed", "cancelled", "paused"),
    ) -> JobRecord:
        """Block until the job reaches one of ``until`` (default: any
        resting state).  Primarily for tests and the synchronous CLI."""
        deadline = timeout
        with self._changed:
            while True:
                record = self.get(job_id)
                if record.state in until:
                    return record
                if deadline <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {record.state!r} after {timeout}s"
                    )
                step = min(0.25, deadline)
                self._changed.wait(timeout=step)
                deadline -= step

    # ------------------------------------------------------------------
    # Executor entry point
    # ------------------------------------------------------------------
    def _execute(self, job_id: str) -> None:
        with self._changed:
            record = self._records.get(job_id)
            if record is None or record.state != "queued":
                return  # cancelled/paused while sitting in the queue
            control = JobControl()
            self._controls[job_id] = control
            record.transition("running")
            self.store.save(record)
            self._changed.notify_all()
        started = time.monotonic()
        self.metrics.gauge("repro_jobs_running").add(1)
        with self.tracer.scope(job_id=job_id, owner=record.owner):
            span = self.tracer.begin(f"job:{record.spec.kind}", "daemon")
            try:
                status, value = run_job(
                    record,
                    control,
                    self.cache,
                    self.inflight,
                    self.repositories,
                    tracer=self.tracer,
                )
            finally:
                self.metrics.gauge("repro_jobs_running").add(-1)
                self.metrics.histogram("repro_job_duration_seconds").observe(
                    time.monotonic() - started
                )
        with self._changed:
            if status == "completed":
                record.transition("completed")
                record.result = value
                record.snapshot = None
            elif status == "paused":
                if record.state == "running":  # pause flag raced the ack
                    record.transition("pausing")
                record.transition("paused")
                record.snapshot = value
            elif status == "cancelled":
                record.transition("cancelled")
                record.snapshot = None
            else:
                record.transition("failed")
                details = value or {}
                record.error = details.get("error")
                record.error_type = details.get("error_type")
                record.traceback = details.get("traceback")
            self._count_transition(record.state)
            self.tracer.end(span)
            if span is not None:
                span.attributes["outcome"] = record.state
            self._controls.pop(job_id, None)
            self.store.save(record)
            self._keep(record)
            self._changed.notify_all()
