"""Batch execution of replay jobs, in process or over a process pool.

A :class:`ReplayJob` names a serialised trace on disk plus the
:class:`~repro.core.replayer.ReplayConfig` to replay it under.  The
:class:`BatchReplayer` resolves each job against the :class:`ResultCache`
first and only replays cache misses.  Two backends are supported:

``"serial"``
    In-process loop (the default).  The replay is pure Python and
    GIL-bound, so in-process threads would buy no parallelism; each unique
    trace is parsed only once per batch.
``"process"``
    ``ProcessPoolExecutor``.  True parallelism across cores; each worker
    receives a plain-data :class:`ReplayJob`, reads the trace itself and
    returns its :class:`ReplayJobResult`.  Use this when replay time
    dominates.

Every replay of a job goes through one pair of functions, whichever
caller runs it — the serial loop, a pool worker, or the daemon's sweep
point (:func:`repro.daemon.executor.run_sweep_job`):

:func:`load_verified`
    Reads the trace and checks it still matches the digest recorded at
    discovery time, so a trace file rewritten between discovery and
    execution fails the job instead of poisoning the result cache.
:func:`replay_job`
    Replays the loaded trace and summarises it into a
    :class:`ReplayJobResult`.  A failing job is captured on its result —
    message, exception type and full traceback — rather than aborting
    the whole batch.  ``pause_check``/``resume_from`` thread straight
    through to :func:`repro.core.pipeline.run_replay`, and a granted pause
    propagates as :class:`~repro.core.pipeline.ReplayPaused` (a
    ``BaseException``, so the error capture cannot mistake it for a
    failure); only the daemon pauses, one point at a time.

A fresh result is written to the cache by :func:`store_result`, with the
same provenance whichever caller replayed it.
"""

from __future__ import annotations

import os
import traceback as traceback_module
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import ReplayCheckpoint, run_replay
from repro.core.replayer import ReplayConfig, ReplayResultSummary
from repro.et.trace import ExecutionTrace
from repro.service.cache import ResultCache, cache_key
from repro.service.repository import TraceRecord

BACKENDS = ("serial", "process")


def pool_size_error(flag: str = "") -> str:
    """A pool size without the process backend; the CLI passes ``flag="--"``."""
    return f"{flag}workers sizes the process pool; pass {flag}backend process too"


@dataclass
class ReplayJob:
    """One unit of batch work: replay the trace at ``trace_path`` under
    ``config``."""

    label: str
    trace_path: Path
    trace_digest: str
    config: ReplayConfig
    trace_name: str = ""

    @classmethod
    def from_record(
        cls, record: TraceRecord, config: ReplayConfig, label: Optional[str] = None
    ) -> "ReplayJob":
        return cls(
            label=label if label is not None else f"{record.name}@{config.device}",
            trace_path=record.path,
            trace_digest=record.digest,
            config=config,
            trace_name=record.name,
        )

    @property
    def cache_key(self) -> str:
        return cache_key(self.trace_digest, self.config)


@dataclass
class ReplayJobResult:
    """Outcome of one job: a summary (from cache or a fresh replay) or an
    error.

    A failed job records the one-line ``error`` message plus the exception
    class name (``error_type``) and the full formatted ``traceback`` —
    enough to debug a worker failure from a ``--json`` report or the
    daemon's job-status payload without re-running the job.
    """

    job: ReplayJob
    summary: Optional[ReplayResultSummary] = None
    cached: bool = False
    error: Optional[str] = None
    error_type: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.summary is not None


@dataclass
class BatchResult:
    """All job results of one batch run, in submission order."""

    results: List[ReplayJobResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def cached_count(self) -> int:
        return sum(1 for result in self.results if result.ok and result.cached)

    @property
    def replayed_count(self) -> int:
        return sum(1 for result in self.results if result.ok and not result.cached)

    @property
    def error_count(self) -> int:
        return sum(1 for result in self.results if not result.ok)

    def errors(self) -> Dict[str, str]:
        return {r.job.label: r.error or "" for r in self.results if not r.ok}


def _format_error(error: BaseException) -> str:
    """Uniform job-error string across backends and failure points."""
    return f"{type(error).__name__}: {error}"


def error_details(error: BaseException) -> Dict[str, str]:
    """``error``/``error_type``/``traceback`` keys for a failed job.

    ``format_exception`` walks the ``__cause__`` chain, so a broken
    process pool — surfaced by ``concurrent.futures`` with the remote
    traceback attached as the cause — keeps the original frames.
    """
    return {
        "error": _format_error(error),
        "error_type": type(error).__name__,
        "traceback": "".join(traceback_module.format_exception(error)),
    }


class TraceChangedError(RuntimeError):
    """The trace file on disk no longer matches its discovery-time digest."""

    def __init__(self, trace_path: str) -> None:
        super().__init__(
            f"trace file {trace_path} changed on disk since discovery "
            f"(digest mismatch); re-run discovery"
        )


def load_verified(trace_path: Union[str, Path], expected_digest: str) -> ExecutionTrace:
    """Load a trace and check it still matches its discovery-time digest
    (an empty ``expected_digest`` skips the check)."""
    trace = ExecutionTrace.load(trace_path)
    if expected_digest and trace.digest() != expected_digest:
        raise TraceChangedError(str(trace_path))
    return trace


def replay_job(
    job: ReplayJob,
    trace: Optional[ExecutionTrace] = None,
    pause_check: Optional[Callable[[], Any]] = None,
    resume_from: Optional[ReplayCheckpoint] = None,
) -> ReplayJobResult:
    """Replay ``job`` and summarise it, or record why it failed.

    Only the summary is kept, so the replay records no profiler trace.
    ``trace`` is the job's already-verified trace; without it the trace is
    read through :func:`load_verified`, whose errors are recorded like a
    replay error.  A granted pause raises
    :class:`~repro.core.pipeline.ReplayPaused`.
    """
    try:
        if trace is None:
            trace = load_verified(job.trace_path, job.trace_digest)
        result = run_replay(
            trace,
            config=job.config,
            pause_check=pause_check,
            resume_from=resume_from,
            record_profile=False,
        )
        summary = result.summarize()
    except Exception as error:  # noqa: BLE001 - a failed job must not kill its batch
        return ReplayJobResult(job=job, **error_details(error))
    return ReplayJobResult(job=job, summary=summary)


def store_result(cache: ResultCache, result: ReplayJobResult) -> None:
    """Write a freshly replayed result to ``cache`` with its provenance."""
    assert result.summary is not None
    cache.put(
        result.job.cache_key,
        result.summary,
        trace_digest=result.job.trace_digest,
        config=result.job.config,
        extra={"label": result.job.label, "trace_name": result.job.trace_name},
    )


class BatchReplayer:
    """Runs many replay jobs, consulting the result cache.

    ``max_workers`` sizes the process backend's pool (default
    ``min(8, cpu_count)``); the serial backend has no pool, so it stays
    ``None`` there.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        max_workers: Optional[int] = None,
        backend: str = "serial",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if max_workers is not None and backend != "process":
            raise ValueError(pool_size_error())
        if backend == "process" and max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        self.cache = cache
        self.backend = backend
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[ReplayJob]) -> BatchResult:
        """Execute every job, serving cache hits without replaying."""
        results: List[Optional[ReplayJobResult]] = [None] * len(jobs)
        pending: List[int] = []

        for index, job in enumerate(jobs):
            if self.cache is not None:
                summary = self.cache.get(job.cache_key)
                if summary is not None:
                    results[index] = ReplayJobResult(job=job, summary=summary, cached=True)
                    continue
            pending.append(index)

        if pending:
            if self.backend == "process":
                self._run_in_processes(jobs, pending, results)
            else:
                self._run_serial(jobs, pending, results)

        batch = BatchResult(results=[result for result in results if result is not None])
        if self.cache is not None:
            for result in batch:
                if result.ok and not result.cached:
                    store_result(self.cache, result)
        return batch

    # ------------------------------------------------------------------
    def _run_in_processes(
        self, jobs: Sequence[ReplayJob], pending: List[int], results: List[Optional[ReplayJobResult]]
    ) -> None:
        """Ship each job to a process pool; the worker loads, verifies and
        replays it through :func:`replay_job`."""
        with ProcessPoolExecutor(max_workers=self.max_workers) as executor:
            futures: Dict[int, Future] = {
                index: executor.submit(replay_job, jobs[index]) for index in pending
            }
            for index, future in futures.items():
                try:
                    results[index] = future.result()
                except Exception as error:  # noqa: BLE001 - a broken pool fails its jobs
                    results[index] = ReplayJobResult(job=jobs[index], **error_details(error))

    @staticmethod
    def _run_serial(
        jobs: Sequence[ReplayJob], pending: List[int], results: List[Optional[ReplayJobResult]]
    ) -> None:
        """Replay each job in turn; the jobs of one trace file share one
        verified load (the trace is only read during replay)."""
        loaded: Dict[Tuple[Path, str], Union[ExecutionTrace, Exception]] = {}
        for index in pending:
            job = jobs[index]
            key = (job.trace_path, job.trace_digest)
            if key not in loaded:
                try:
                    loaded[key] = load_verified(*key)
                except Exception as error:  # noqa: BLE001 - recorded on each of its jobs
                    loaded[key] = error
            trace = loaded[key]
            if isinstance(trace, Exception):
                results[index] = ReplayJobResult(job=job, **error_details(trace))
            else:
                results[index] = replay_job(job, trace)
