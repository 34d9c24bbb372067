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
    ``ProcessPoolExecutor``.  True parallelism across cores; jobs are
    shipped as (path, config-dict) pairs so nothing unpicklable crosses the
    process boundary.  Use this when replay time dominates.

Every worker verifies that the digest of the trace it actually loaded
matches the digest recorded at discovery time, so a trace file rewritten
between discovery and execution fails the job instead of poisoning the
result cache.  A failing job is captured on its :class:`ReplayJobResult`
— message, exception type and full traceback — rather than aborting the
whole batch.

The serial backend is additionally *checkpointable*: ``pause_check`` and
per-job resume checkpoints thread straight through to
:func:`repro.core.pipeline.run_replay`, and a granted pause propagates as
:class:`~repro.core.pipeline.ReplayPaused` (a ``BaseException``, so the
per-job error handling cannot mistake it for a failure).  The daemon's
executor builds on exactly this path.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

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
    duration_s: float = 0.0

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


def _replay_trace(
    trace: ExecutionTrace,
    config_dict: Dict[str, Any],
    pause_check: Optional[Any] = None,
    resume_from: Optional[ReplayCheckpoint] = None,
) -> Dict[str, Any]:
    """Replay an already-loaded trace and return the summary payload."""
    start = time.perf_counter()
    config = ReplayConfig.from_dict(config_dict)
    result = run_replay(trace, config=config, pause_check=pause_check, resume_from=resume_from)
    return {"summary": result.summarize().to_dict(), "duration_s": time.perf_counter() - start}


def _format_error(error: BaseException) -> str:
    """Uniform job-error string across backends and failure points."""
    return f"{type(error).__name__}: {error}"


def _error_details(error: BaseException) -> Dict[str, str]:
    """``error``/``error_type``/``traceback`` keys for a failed job.

    ``format_exception`` walks the ``__cause__`` chain, so process-pool
    failures — surfaced by ``concurrent.futures`` with the worker's remote
    traceback attached as the cause — keep the original frames.
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


def _load_verified(trace_path: str, expected_digest: str) -> ExecutionTrace:
    """Load a trace and check it still matches its discovery-time digest."""
    trace = ExecutionTrace.load(trace_path)
    if expected_digest and trace.digest() != expected_digest:
        raise TraceChangedError(trace_path)
    return trace


def _execute_job(
    trace_path: str, config_dict: Dict[str, Any], expected_digest: str = ""
) -> Dict[str, Any]:
    """Worker entry point: load, verify, replay, summarise.

    Takes and returns only JSON-ish values so nothing unpicklable crosses
    the process boundary (module-level so it pickles by reference).
    """
    return _replay_trace(_load_verified(trace_path, expected_digest), config_dict)


class BatchReplayer:
    """Runs many replay jobs concurrently, consulting the result cache."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        max_workers: Optional[int] = None,
        backend: str = "serial",
        pause_check: Optional[Any] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if max_workers is not None and backend != "process":
            raise ValueError(pool_size_error())
        if pause_check is not None and backend != "serial":
            raise ValueError(
                "pause_check requires the serial backend — cooperative pause has "
                f"no meaning for jobs already shipped to a {backend!r} pool"
            )
        self.cache = cache
        self.backend = backend
        self.pause_check = pause_check
        self.max_workers = max_workers if max_workers is not None else min(8, os.cpu_count() or 1)

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[ReplayJob],
        resume_from: Optional[Mapping[str, ReplayCheckpoint]] = None,
    ) -> BatchResult:
        """Execute every job, serving cache hits without replaying.

        ``resume_from`` maps job labels to previously captured
        :class:`~repro.core.pipeline.ReplayCheckpoint` tokens (serial
        backend only); a matching job resumes from its checkpoint by
        deterministic re-execution instead of starting over.  A granted
        pause propagates as :class:`~repro.core.pipeline.ReplayPaused`,
        aborting the rest of the batch — callers that pause run one job
        per batch (as the daemon's executor does).
        """
        if resume_from and self.backend != "serial":
            raise ValueError("resume_from requires the serial backend")
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
                self._run_serial(jobs, pending, results, resume_from or {})

        batch = BatchResult(results=[result for result in results if result is not None])
        if self.cache is not None:
            for result in batch:
                if result.ok and not result.cached:
                    assert result.summary is not None
                    self.cache.put(
                        result.job.cache_key,
                        result.summary,
                        trace_digest=result.job.trace_digest,
                        config=result.job.config,
                        extra={"label": result.job.label, "trace_name": result.job.trace_name},
                    )
        return batch

    # ------------------------------------------------------------------
    def _run_in_processes(
        self, jobs: Sequence[ReplayJob], pending: List[int], results: List[Optional[ReplayJobResult]]
    ) -> None:
        """Ship each job as (path, config dict, digest) to a process pool."""
        with ProcessPoolExecutor(max_workers=self.max_workers) as executor:
            futures: Dict[int, Future] = {
                index: executor.submit(
                    _execute_job,
                    str(jobs[index].trace_path),
                    jobs[index].config.to_dict(),
                    jobs[index].trace_digest,
                )
                for index in pending
            }
            for index, future in futures.items():
                results[index] = self._collect(jobs[index], future)

    def _run_serial(
        self,
        jobs: Sequence[ReplayJob],
        pending: List[int],
        results: List[Optional[ReplayJobResult]],
        resume_from: Mapping[str, ReplayCheckpoint],
    ) -> None:
        """Load and digest-check each unique trace once, then replay each
        job in turn (the trace is only read during replay, so its jobs
        share it)."""
        traces: Dict[str, ExecutionTrace] = {}
        digests: Dict[str, str] = {}
        load_errors: Dict[str, Dict[str, str]] = {}
        runnable: List[int] = []
        for index in pending:
            job = jobs[index]
            path = str(job.trace_path)
            if path not in traces and path not in load_errors:
                try:
                    traces[path] = ExecutionTrace.load(path)
                    digests[path] = traces[path].digest()
                except Exception as error:  # noqa: BLE001
                    load_errors[path] = _error_details(error)
            if path in load_errors:
                results[index] = ReplayJobResult(job=job, **load_errors[path])
            elif job.trace_digest and job.trace_digest != digests[path]:
                results[index] = ReplayJobResult(
                    job=job, **_error_details(TraceChangedError(path))
                )
            else:
                runnable.append(index)

        for index in runnable:
            job = jobs[index]
            try:
                payload = _replay_trace(
                    traces[str(job.trace_path)],
                    job.config.to_dict(),
                    pause_check=self.pause_check,
                    resume_from=resume_from.get(job.label),
                )
            except Exception as error:  # noqa: BLE001 - jobs must not kill the batch
                results[index] = ReplayJobResult(job=job, **_error_details(error))
            else:
                results[index] = self._from_payload(job, payload)

    def _collect(self, job: ReplayJob, future: Future) -> ReplayJobResult:
        try:
            payload = future.result()
        except Exception as error:  # noqa: BLE001
            return ReplayJobResult(job=job, **_error_details(error))
        return self._from_payload(job, payload)

    @staticmethod
    def _from_payload(job: ReplayJob, payload: Dict[str, Any]) -> ReplayJobResult:
        return ReplayJobResult(
            job=job,
            summary=ReplayResultSummary.from_dict(payload["summary"]),
            duration_s=float(payload.get("duration_s", 0.0)),
        )
