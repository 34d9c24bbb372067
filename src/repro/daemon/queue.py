"""Fair multi-tenant job scheduling: priorities first, then round-robin.

The daemon serves several clients from one queue, so plain FIFO lets a
single tenant bury everyone else under a burst of submissions.  The
discipline here:

1. **Priority** — a higher :attr:`~repro.daemon.jobs.JobRecord.priority`
   always dispatches first (the operator's escape hatch).
2. **Per-owner round-robin** — within a priority level, the owner who has
   been *served least* goes next, so interleaved tenants make equal
   progress no matter how many jobs each has queued.
3. **FIFO** — within one owner, submission order (the ``seq`` stamped at
   submit time) breaks ties, and also orders owners that are tied on the
   served count, so dispatch is fully deterministic.

The queue stores job *ids* only; records live in the store.  It is a
coordination point between the submitting threads (HTTP handlers) and the
executor's workers, hence the condition variable: :meth:`pop` blocks until
a job or shutdown arrives.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

#: (priority, owner, seq, job_id) — everything dispatch needs.
_Entry = Tuple[int, str, int, str]


class JobQueue:
    """Priority + fair-share queue of queued job ids."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._entries: List[_Entry] = []
        #: owner -> jobs dispatched so far (the fairness ledger).
        self._served: Dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def push(self, priority: int, owner: str, seq: int, job_id: str) -> None:
        with self._ready:
            if self._closed:
                raise RuntimeError("queue is closed")
            self._entries.append((priority, owner, seq, job_id))
            self._ready.notify()

    def remove(self, job_id: str) -> bool:
        """Drop a queued job (cancellation); True when it was present."""
        with self._ready:
            for index, entry in enumerate(self._entries):
                if entry[3] == job_id:
                    del self._entries[index]
                    return True
            return False

    def pop(self, timeout: Optional[float] = None) -> Optional[str]:
        """Next job id under the fairness discipline; ``None`` on shutdown
        or timeout.  Blocks while the queue is empty."""
        with self._ready:
            while not self._entries and not self._closed:
                if not self._ready.wait(timeout=timeout):
                    return None
            if not self._entries:
                return None
            entry = min(self._entries, key=self._dispatch_key)
            self._entries.remove(entry)
            self._served[entry[1]] = self._served.get(entry[1], 0) + 1
            return entry[3]

    def _dispatch_key(self, entry: _Entry) -> tuple:
        priority, owner, seq, _ = entry
        # Max priority first (negate), then least-served owner, then FIFO.
        return (-priority, self._served.get(owner, 0), seq)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Wake every blocked :meth:`pop` with ``None`` (shutdown)."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def depth_by_owner(self) -> Dict[str, int]:
        with self._lock:
            depths: Dict[str, int] = {}
            for _, owner, _, _ in self._entries:
                depths[owner] = depths.get(owner, 0) + 1
            return depths
