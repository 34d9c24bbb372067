"""Durable job state: one JSON file per job under the daemon's state dir.

The daemon must survive restarts with its queue, results and snapshots
intact — a paused job snapshotted before a restart resumes afterwards and
still produces byte-identical results.  The store is therefore
write-through: every state transition persists the full
:class:`~repro.daemon.jobs.JobRecord` before the transition is visible to
clients.  Writes are atomic (tmp file + ``os.replace``), the same
discipline as the result cache, so a crash mid-write leaves the previous
record rather than a torn one.  A record is one line of compact JSON with
sorted keys; records that older daemons wrote indented load the same.

Records survive a crash of the daemon *process*, not of the *host*: the
store never calls ``fsync``, so after a power loss or kernel crash the
latest writes may be missing or, depending on the filesystem, a replaced
record may be empty (``load_all`` skips it).  An fsync per state
transition would cost more than the replay of a small job; it waits for
a deployment that needs host-crash durability.

Layout::

    <state_dir>/jobs/<job_id>.json
    <state_dir>/jobs/<job_id>.tmp-<pid>   (a save in flight, or one a
                                            crash cut short)

:meth:`JobStore.recover` is the restart path: it loads every record,
re-marks jobs that were mid-flight when the process died (``running`` /
``pausing``) back to ``queued`` — their snapshot, if any, rides along so
completed work is not repriced — and returns the records in submission
order so the caller can rebuild the queue deterministically.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import List, Optional, Union

from repro.daemon.jobs import JobRecord, job_sort_key


class JobStore:
    """Directory-backed persistence for job records."""

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.root = Path(state_dir)
        #: Created by the first save that finds it missing.
        self.jobs_dir = self.root / "jobs"
        self._lock = threading.Lock()

    def _path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    # ------------------------------------------------------------------
    def save(self, record: JobRecord) -> Path:
        """Persist ``record`` atomically (write-through on every change)."""
        text = json.dumps(record.to_dict(), separators=(",", ":"), sort_keys=True)
        path = self._path(record.id)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        with self._lock:
            try:
                tmp.write_text(text)
            except FileNotFoundError:
                self.jobs_dir.mkdir(parents=True, exist_ok=True)
                tmp.write_text(text)
            os.replace(tmp, path)
        return path

    @staticmethod
    def _read(path: Path) -> Optional[JobRecord]:
        """The record stored at ``path``, or ``None`` when the file is
        unreadable, malformed, or holds a record that does not name itself
        (its id differs from the file's stem — saving it back would write
        to a different path, possibly outside the jobs directory)."""
        try:
            record = JobRecord.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError):  # JSONDecodeError is a ValueError
            return None
        return record if record.id == path.stem else None

    def load(self, job_id: str) -> Optional[JobRecord]:
        return self._read(self._path(job_id))

    def ids(self) -> List[str]:
        """The ids the stored records' files name (a save in flight is not
        one yet)."""
        if not self.jobs_dir.is_dir():
            return []
        return [path.stem for path in self.jobs_dir.glob("*.json")]

    def load_all(self) -> List[JobRecord]:
        """Every readable record, in submission order; unreadable files
        are skipped (a torn tmp file must not wedge startup)."""
        if not self.jobs_dir.is_dir():
            return []
        records = [
            record
            for record in map(self._read, sorted(self.jobs_dir.glob("*.json")))
            if record is not None
        ]
        records.sort(key=job_sort_key)
        return records

    def delete(self, job_id: str) -> bool:
        try:
            self._path(job_id).unlink()
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    def recover(self) -> List[JobRecord]:
        """Restart path: load everything, requeue interrupted jobs.

        Jobs that were ``running`` or ``pausing`` when the daemon died go
        back to ``queued`` (write-through, so the repair is durable too);
        ``paused`` jobs stay paused — resuming is the owner's call.  Tmp
        files of saves a crash cut short are deleted: the record they were
        replacing is still intact.
        """
        if self.jobs_dir.is_dir():
            with self._lock:
                for stale in self.jobs_dir.glob("*.tmp-*"):
                    stale.unlink(missing_ok=True)
        records = self.load_all()
        for record in records:
            if record.state in ("running", "pausing"):
                record.state = "queued"
                self.save(record)
        return records

    def max_seq(self) -> int:
        records = self.load_all()
        return max((record.seq for record in records), default=0)

