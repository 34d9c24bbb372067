"""repro.daemon — the persistent multi-tenant replay service.

A long-running server (``python -m repro serve``) hosting an async job
queue over the batch/cluster replay layers, with a stdlib REST/JSON API
and a client CLI (``repro submit/status/result/cancel/pause/resume/
snapshot``).  Jobs are checkpointable: an in-flight sweep or cluster
replay can be paused at a deterministic boundary, snapshotted to disk,
and resumed — including across daemon restarts — with byte-identical
results.  See ``docs/daemon.md``.

Layering (each module only imports downward):

``jobs``      plain-data job model: specs, records, the state machine
``queue``     fair scheduling: priority, per-owner round-robin, FIFO
``store``     write-through persistence + restart recovery
``executor``  worker pool, cooperative pause, exactly-once point pricing
``daemon``    :class:`ReplayDaemon` — the orchestrator tying it together
``server``    ``http.server`` REST front-end
``client``    ``urllib`` client the CLI subcommands use
"""

from repro.daemon.daemon import JobAccessError, ReplayDaemon, UnknownJobError
from repro.daemon.executor import InflightRegistry, JobControl, JobExecutor
from repro.daemon.jobs import (
    DAEMON_SCHEMA_VERSION,
    JOB_KINDS,
    JOB_STATES,
    TERMINAL_STATES,
    JobRecord,
    JobSnapshot,
    JobSpec,
    JobStateError,
)
from repro.daemon.queue import JobQueue
from repro.daemon.store import JobStore

__all__ = [
    "DAEMON_SCHEMA_VERSION",
    "JOB_KINDS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "InflightRegistry",
    "JobAccessError",
    "JobControl",
    "JobExecutor",
    "JobQueue",
    "JobRecord",
    "JobSnapshot",
    "JobSpec",
    "JobStateError",
    "JobStore",
    "ReplayDaemon",
    "UnknownJobError",
]
