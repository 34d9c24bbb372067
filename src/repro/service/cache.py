"""Content-addressed result cache for batch replays.

A replay is a pure function of (execution trace, :class:`ReplayConfig`): the
simulated runtime is deterministic, so a result computed once never needs to
be recomputed.  The cache keys each entry on the SHA-256 of the pair
``(trace digest, config digest)`` and stores one JSON file per entry under a
cache directory, which makes it safe to share between processes — workers in
a process pool and repeated CLI invocations all see the same entries.

Only the compact :class:`~repro.core.replayer.ReplayResultSummary` is
cached, not the full profiler trace; sweeps aggregate scalar measurements.

Long-running consumers (the :mod:`repro.daemon` replay service) keep one
cache open for days, so the cache is boundable: ``max_entries`` caps the
entry count (least-recently-*used* evicted first — a served hit refreshes
the entry's file mtime) and ``ttl_s`` expires entries that have not been
touched within the window.  Entries :meth:`pin`-ned by in-flight jobs are
never evicted, whatever the pressure — a job that resolved its points
against the cache must still find them there when it reads the results.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.core.replayer import ReplayConfig, ReplayResultSummary
from repro.version import __version__

#: Bumped whenever the cached payload shape changes; part of every key so a
#: format change naturally invalidates old entries.
CACHE_FORMAT_VERSION = "1"


def cache_key(trace_digest: str, config: ReplayConfig) -> str:
    """Deterministic cache key for one (trace, config) replay.

    The package version is part of the key: replay results depend on the
    replayer/cost-model code, so a new release naturally invalidates every
    entry instead of silently serving numbers computed by old code.
    """
    payload = f"{CACHE_FORMAT_VERSION}:{__version__}:{trace_digest}:{config.digest()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed cache of replay result summaries.

    ``max_entries`` and ``ttl_s`` bound the cache (both optional; an
    unbounded cache behaves exactly as before).  Eviction runs on every
    :meth:`put` and on explicit :meth:`evict` calls; pinned keys are exempt.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = None,
        ttl_s: Optional[float] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.root = Path(root)
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._pinned: Set[str] = set()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[ReplayResultSummary]:
        """Cached summary for ``key``, or ``None`` (counts hit/miss).

        A hit refreshes the entry's mtime, which is the cache's recency
        signal: frequently served entries survive LRU pressure.
        """
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
            summary = ReplayResultSummary.from_dict(data["summary"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path, None)
        except OSError:
            pass  # touch is best-effort; a racing eviction already removed it
        return summary

    def put(
        self,
        key: str,
        summary: ReplayResultSummary,
        trace_digest: str = "",
        config: Optional[ReplayConfig] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Store a summary under ``key`` along with provenance metadata
        (one line of compact JSON; entries written indented still load)."""
        entry: Dict[str, Any] = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "trace_digest": trace_digest,
            "config": config.to_dict() if config is not None else None,
            "summary": summary.to_dict(),
        }
        if extra:
            entry["extra"] = extra
        text = json.dumps(entry, separators=(",", ":"), default=str)
        path = self._path(key)
        # Atomic write: concurrent invocations sharing the cache directory
        # must never observe a partially written entry.  Each thread of
        # each process writes its own tmp file.
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            tmp.write_text(text)
        except FileNotFoundError:  # the first entry creates the directory
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
        os.replace(tmp, path)
        if self.max_entries is not None or self.ttl_s is not None:
            self.evict()
        return path

    def contains(self, key: str) -> bool:
        """True when an entry exists (does not count as a hit or miss)."""
        return self._path(key).is_file()

    # ------------------------------------------------------------------
    # Pinning — in-flight jobs protect their inputs from eviction
    # ------------------------------------------------------------------
    def pin(self, key: str) -> None:
        """Exempt ``key`` from eviction until :meth:`unpin`."""
        self._pinned.add(key)

    def unpin(self, key: str) -> None:
        self._pinned.discard(key)

    @property
    def pinned(self) -> Set[str]:
        """Snapshot of the currently pinned keys."""
        return set(self._pinned)

    # ------------------------------------------------------------------
    # Eviction — TTL first, then LRU down to max_entries
    # ------------------------------------------------------------------
    def evict(self, now: Optional[float] = None) -> int:
        """Apply the TTL and max-entries bounds; returns entries removed.

        Pinned keys never count against ``max_entries`` victims and never
        expire — they belong to jobs that are still running.
        """
        if not self.root.is_dir():
            return 0
        now = time.time() if now is None else now
        entries: List[tuple] = []  # (mtime, key, path), unpinned only
        for path in self.root.glob("*.json"):
            if path.stem in self._pinned:
                continue
            try:
                entries.append((path.stat().st_mtime, path.stem, path))
            except OSError:
                continue
        removed = 0
        survivors = []
        for mtime, key, path in sorted(entries):
            if self.ttl_s is not None and now - mtime > self.ttl_s:
                removed += self._remove(path)
            else:
                survivors.append((mtime, key, path))
        if self.max_entries is not None:
            # Pinned entries count toward the bound but cannot be victims.
            total = len(survivors) + len(self._pinned & set(self.keys()))
            for mtime, key, path in survivors:
                if total <= self.max_entries:
                    break
                removed += self._remove(path)
                total -= 1
        self.evictions += removed
        return removed

    def _remove(self, path: Path) -> int:
        try:
            path.unlink()
            return 1
        except OSError:
            return 0

    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in self.keys():
            self._path(key).unlink()
            removed += 1
        return removed

    def stats(self) -> Dict[str, Any]:
        """Operational counters (served by the daemon's health endpoint)."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pinned": len(self._pinned),
            "max_entries": self.max_entries,
            "ttl_s": self.ttl_s,
        }
