"""Job model of the replay daemon: specs, states, records, snapshots.

A *job* is one unit of client-submitted work — a whole sweep (traces x
devices x config axes, exactly what ``repro sweep`` runs inline) or one
cluster co-replay — owned by the client that submitted it and scheduled by
the daemon's queue.  The model here is deliberately plain data: every
record round-trips through JSON (the store persists one file per job, the
REST API serves the same dicts), and everything execution-related (thread
handles, pause events) lives in the executor, keyed by job id.

The **state machine**::

    queued ──▶ running ──▶ completed
      │          │ ▲            ▲
      │          ▼ │            │
      │       pausing           │
      │          │              │
      ▼          ▼              │
    cancelled ◀─ paused ──(resume: back to queued)
                 │
                 └──▶ cancelled

plus ``running → failed`` when the replay itself errors.  ``pausing`` is
the cooperative window between a client's pause request and the replay
acknowledging it at the next checkpoint boundary (op-program iteration
boundary for sweeps, scheduler-step boundary for cluster jobs).

A paused sweep job carries a :data:`snapshot <JobRecord.snapshot>`: the
summaries of every completed grid point (so resume never re-prices them,
even if the result cache evicted the entries meanwhile) plus the
in-flight point's :class:`~repro.core.pipeline.ReplayCheckpoint`.  A
paused cluster job records only how many scheduler steps had run: fleet
replay is deterministic, so resume re-executes from scratch and is
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Version stamped on every persisted job record and daemon payload; bump
#: on any shape change so a restarted daemon never misreads old state.
DAEMON_SCHEMA_VERSION = 1

#: Job kinds the executor knows how to run.
JOB_KINDS = ("sweep", "cluster")

#: All states; terminal ones never transition again.
JOB_STATES = ("queued", "running", "pausing", "paused", "completed", "failed", "cancelled")
TERMINAL_STATES = frozenset({"completed", "failed", "cancelled"})

#: Legal (from, to) transitions; everything else is a caller bug.
_TRANSITIONS = frozenset(
    {
        ("queued", "running"),
        ("queued", "paused"),  # pause before the executor picked it up
        ("queued", "cancelled"),
        ("running", "pausing"),
        ("running", "completed"),
        ("running", "failed"),
        ("running", "cancelled"),
        ("pausing", "paused"),
        ("pausing", "completed"),  # pause lost the race with the finish line
        ("pausing", "failed"),
        ("pausing", "cancelled"),
        ("paused", "queued"),  # resume
        ("paused", "cancelled"),
    }
)


class JobStateError(RuntimeError):
    """An operation is illegal in the job's current state."""


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclass
class JobSpec:
    """What to replay.  ``kind`` selects the executor path; ``payload``
    holds the kind-specific arguments (JSON-primitive values only):

    ``"sweep"``
        ``{"repo": dir, "traces": [...] | None, "devices": [...],
        "axes": {field: [values]}, "base": ReplayConfig dict}``
    ``"cluster"``
        ``{"trace_dir": dir, "config": ReplayConfig dict}``
    """

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "payload": dict(self.payload)}

    @classmethod
    def from_dict(cls, data: Any) -> "JobSpec":
        """Raises ``ValueError`` on a malformed spec."""
        if not isinstance(data, dict) or not isinstance(data.get("payload") or {}, dict):
            raise ValueError("job spec is not an object with an object payload")
        return cls(kind=data.get("kind"), payload=dict(data.get("payload") or {}))


@dataclass
class JobRecord:
    """One job's full persisted state (see the module docstring for the
    state machine).  Everything here serialises; runtime-only handles live
    in the executor."""

    id: str
    owner: str
    spec: JobSpec
    priority: int = 0
    state: str = "queued"
    #: Monotonic submission sequence — the FIFO axis of the scheduler.
    seq: int = 0
    #: Populated on ``failed`` (message, exception type, full traceback).
    error: Optional[str] = None
    error_type: Optional[str] = None
    traceback: Optional[str] = None
    #: Populated on ``completed``: the job's JSON result payload.
    result: Optional[Dict[str, Any]] = None
    #: Populated on ``paused``: enough to resume without recomputation.
    snapshot: Optional[Dict[str, Any]] = None
    schema_version: int = DAEMON_SCHEMA_VERSION

    # ------------------------------------------------------------------
    def transition(self, new_state: str) -> None:
        """Move to ``new_state``; raise :class:`JobStateError` otherwise."""
        if (self.state, new_state) not in _TRANSITIONS:
            raise JobStateError(
                f"job {self.id} cannot go {self.state!r} -> {new_state!r}"
            )
        self.state = new_state

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "id": self.id,
            "owner": self.owner,
            "spec": self.spec.to_dict(),
            "priority": self.priority,
            "state": self.state,
            "seq": self.seq,
            "error": self.error,
            "error_type": self.error_type,
            "traceback": self.traceback,
            "result": self.result,
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "JobRecord":
        """Raises ``ValueError`` on a malformed record.

        The ``id`` and ``owner`` must be strings: the id keys the daemon's
        job table and names the record's file (the store also checks that
        it matches that file's name).
        """
        version = data.get("schema_version") if isinstance(data, dict) else None
        if version != DAEMON_SCHEMA_VERSION:
            raise ValueError(
                f"job record schema version {version!r} != {DAEMON_SCHEMA_VERSION}"
            )
        if not all(isinstance(data.get(key), str) for key in ("id", "owner")):
            raise ValueError("job record has a missing or non-string id/owner")
        if data.get("state") not in JOB_STATES or not all(
            type(data.get(key, 0)) is int for key in ("priority", "seq")
        ):
            raise ValueError("job record has an unknown state or a non-int priority/seq")
        return cls(
            id=data["id"],
            owner=data["owner"],
            spec=JobSpec.from_dict(data.get("spec")),
            priority=data.get("priority", 0),
            state=data["state"],
            seq=data.get("seq", 0),
            error=data.get("error"),
            error_type=data.get("error_type"),
            traceback=data.get("traceback"),
            result=data.get("result"),
            snapshot=data.get("snapshot"),
        )


def sweep_snapshot(
    completed: Dict[str, Dict[str, Any]],
    pending_label: Optional[str],
    checkpoint: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """Snapshot of a paused sweep job.

    ``completed`` maps point labels to ``{"cache_key", "summary",
    "cached"}`` — the summary rides in the snapshot itself so resume is
    immune to cache eviction.  ``checkpoint`` is the in-flight point's
    :meth:`~repro.core.pipeline.ReplayCheckpoint.to_dict` (or ``None``
    when the pause landed exactly between points).
    """
    return {
        "schema_version": DAEMON_SCHEMA_VERSION,
        "kind": "sweep",
        "completed": completed,
        "pending_label": pending_label,
        "checkpoint": checkpoint,
    }


def cluster_snapshot(completed_steps: int) -> Dict[str, Any]:
    """Snapshot of a paused cluster job: the step count is purely
    informational — resume re-runs the (deterministic) fleet from scratch
    and produces a byte-identical report."""
    return {
        "schema_version": DAEMON_SCHEMA_VERSION,
        "kind": "cluster",
        "completed_steps": int(completed_steps),
    }


def job_sort_key(record: JobRecord) -> tuple:
    """Canonical listing order: submission order."""
    return (record.seq, record.id)
