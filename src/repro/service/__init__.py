"""Batch replay orchestration.

The core pipeline (``repro.core``) replays *one* execution trace at a time.
This subpackage scales that up to fleets of traces and grids of replay
configurations — the "benchmark sweep" workflow a production benchmarking
service runs continuously:

* :mod:`~repro.service.repository` — a :class:`TraceRepository` that
  discovers, validates and content-addresses serialised execution traces on
  disk,
* :mod:`~repro.service.cache` — a :class:`ResultCache` keyed on
  (trace digest, replay-config digest) so repeated sweeps skip work that is
  already done,
* :mod:`~repro.service.batch` — a :class:`BatchReplayer` that replays
  jobs in process or over a process pool, on the one load-verify-replay
  path (``load_verified``/``replay_job``) the daemon's sweep points take
  too,
* :mod:`~repro.service.sweep` — a :class:`SweepRunner` that expands a
  declarative :class:`SweepSpec` (traces x devices x config axes) into jobs
  and aggregates the results,
* :mod:`~repro.service.cli` — the ``python -m repro`` command-line
  interface (``list-traces``, ``replay``, ``sweep``).

See ``docs/architecture.md`` for how this layer sits on top of ``et``,
``core``, ``hardware`` and ``bench``.
"""

from repro.et.schema import TraceValidationError
from repro.service.batch import BatchReplayer, BatchResult, ReplayJob, ReplayJobResult
from repro.service.cache import ResultCache
from repro.service.repository import TraceRecord, TraceRepository
from repro.service.sweep import SweepRunner, SweepSpec

__all__ = [
    "BatchReplayer",
    "BatchResult",
    "ReplayJob",
    "ReplayJobResult",
    "ResultCache",
    "TraceRecord",
    "TraceRepository",
    "TraceValidationError",
    "SweepRunner",
    "SweepSpec",
]
