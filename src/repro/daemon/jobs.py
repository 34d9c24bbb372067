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
acknowledging it at the next iteration boundary — of the in-flight sweep
point, or of whichever fleet rank reaches one first.  A replay in its
final iteration finishes instead.

A paused job carries a :data:`snapshot <JobRecord.snapshot>`, one
:class:`JobSnapshot` shape for both kinds: the summaries of every
completed sweep point (so resume never re-prices them, even if the result
cache evicted the entries meanwhile) plus the paused replay's
:class:`~repro.core.pipeline.ReplayCheckpoint`.  Replay is deterministic,
so resume re-executes the paused sweep point or fleet, verifies the
checkpoint at its boundary, and is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import re
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.pipeline import CheckpointError, ReplayCheckpoint

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


#: The form of every id :func:`new_job_id` makes: 12 lowercase hex digits.
_JOB_ID = re.compile(r"[0-9a-f]{12}")


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


def is_job_id(value: Any) -> bool:
    """True when ``value`` has the form of a :func:`new_job_id` id — and so
    is safe to name a file in the job store with."""
    return isinstance(value, str) and _JOB_ID.fullmatch(value) is not None


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
    #: Populated on ``paused``: enough to resume without recomputation
    #: (:meth:`JobSnapshot.to_dict`, parsed when the job resumes).
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


@dataclass
class JobSnapshot:
    """What a paused job resumes from: one shape for both job kinds.

    ``completed`` maps a sweep's finished point labels to ``{"cache_key",
    "trace", "device", "cached", "summary"}`` (a fleet has none).
    ``checkpoint`` is the paused replay's
    :class:`~repro.core.pipeline.ReplayCheckpoint`; ``pending_label`` names
    its sweep point (``None`` for a fleet: the digests name the rank).
    """

    kind: str
    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    pending_label: Optional[str] = None
    checkpoint: Optional[ReplayCheckpoint] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": DAEMON_SCHEMA_VERSION,
            "kind": self.kind,
            "completed": {label: dict(entry) for label, entry in self.completed.items()},
            "pending_label": self.pending_label,
            "checkpoint": None if self.checkpoint is None else self.checkpoint.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "JobSnapshot":
        """Parse a persisted snapshot; raises :class:`CheckpointError` and
        nothing else on a malformed one.

        An absent ``completed``, ``pending_label`` or ``checkpoint`` means
        nothing to skip or verify, and other keys are ignored, so a fleet
        snapshot from before fleets checkpointed (it held only a scheduler
        step count) resumes by re-running from scratch.
        """
        if not isinstance(data, dict):
            raise CheckpointError(f"job snapshot is a {type(data).__name__}, not an object")
        kind = data.get("kind")
        if kind not in JOB_KINDS:
            raise CheckpointError(f"job snapshot has unknown kind {kind!r}")
        completed = data.get("completed", {})
        if not isinstance(completed, dict):
            raise CheckpointError("job snapshot's 'completed' is not an object")
        for label, entry in completed.items():
            if not (
                isinstance(entry, dict)
                and all(isinstance(entry.get(key), str) for key in ("cache_key", "trace", "device"))
                and type(entry.get("cached")) is bool
                and isinstance(entry.get("summary"), dict)
            ):
                raise CheckpointError(
                    f"job snapshot's completed point {label!r} needs string cache_key, "
                    "trace and device, a bool cached and a summary object"
                )
        pending_label = data.get("pending_label")
        if pending_label is not None and not isinstance(pending_label, str):
            raise CheckpointError("job snapshot's 'pending_label' is not a string or null")
        checkpoint = data.get("checkpoint")
        return cls(
            kind=kind,
            completed={label: dict(entry) for label, entry in completed.items()},
            pending_label=pending_label,
            checkpoint=None if checkpoint is None else ReplayCheckpoint.from_dict(checkpoint),
        )


def job_sort_key(record: JobRecord) -> tuple:
    """Canonical listing order: submission order."""
    return (record.seq, record.id)
