"""Trace repository: discovery, validation and loading of serialised traces.

A repository is a directory of execution traces serialised as JSON by
:meth:`repro.et.trace.ExecutionTrace.save` (the same files
:class:`repro.core.generator.BenchmarkGenerator` emits next to generated
benchmarks).  Discovery walks the directory, loads each new or changed
candidate file through :meth:`ExecutionTrace.load`, and produces
lightweight :class:`TraceRecord` entries — path, content digest, node
counts, metadata — without keeping the full traces in memory.  Files that
are not execution traces (for instance the profiler traces the generator
writes alongside) are skipped and reported in
:attr:`TraceRepository.invalid`.
"""

from __future__ import annotations

import os
import stat
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple, Union

from repro.et.schema import TraceValidationError
from repro.et.trace import ExecutionTrace

#: ``(st_ino, st_size, st_mtime_ns, st_ctime_ns)``: a file whose signature
#: is unchanged since the last scan is not read again.
Signature = Tuple[int, int, int, int]

#: A file whose ctime is this close to the scan is read again on the next
#: scan: a rewrite within the same timestamp tick (up to 2 s on coarse
#: filesystems) would leave its signature unchanged.
RACY_WINDOW_NS = 2_000_000_000


class UnknownTraceError(KeyError):
    """No trace with the given name under the repository root."""

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class TraceRecord:
    """One discovered trace: everything the batch layer needs to schedule a
    replay without loading the full trace.  Frozen: successive scans and
    threads share an unchanged file's record."""

    name: str
    path: Path
    digest: str
    num_nodes: int
    num_operators: int
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def workload(self) -> str:
        return str(self.metadata.get("workload", ""))

    @property
    def world_size(self) -> int:
        return int(self.metadata.get("world_size", 1))


class TraceRepository:
    """Discovers and loads execution traces under a directory tree.

    One instance can serve a process for its lifetime: every
    :meth:`discover` walks the tree again but reads only the files whose
    ``stat`` signature changed since the previous scan, so a long-lived
    repository (the daemon keeps one per root) stays current at the cost
    of a ``stat`` per file.  Calls from several threads are safe.  Nothing
    is memoised between calls: ``len()``, iteration, :meth:`names`,
    :meth:`get`, :meth:`select` and :meth:`load` by name each run one
    :meth:`discover`, so a caller that already holds records should pass
    them on (``load(record)`` reads just that file).

    Parameters
    ----------
    root:
        Directory to scan.  It is created on demand by :meth:`add`.
    pattern:
        Glob applied recursively under ``root`` (default ``*.json``).
    """

    def __init__(self, root: Union[str, Path], pattern: str = "*.json") -> None:
        self.root = Path(root)
        self.pattern = pattern
        #: path -> reason, for files matching the pattern that failed
        #: validation during the last :meth:`discover`.
        self.invalid: Dict[Path, str] = {}
        #: path -> (stat signature, record or invalid reason) of the last scan.
        self._entries: Dict[Path, Tuple[Signature, Union[TraceRecord, str]]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(self) -> List[TraceRecord]:
        """Scan the root and return all valid trace records, sorted by path.

        Only new files and files whose ``stat`` signature changed are read
        and digested; the others keep the record (or invalid reason) of the
        previous scan, and removed files drop out.
        """
        with self._lock:
            scan_ns = time.time_ns()
            entries: Dict[Path, Tuple[Signature, Union[TraceRecord, str]]] = {}
            invalid: Dict[Path, str] = {}
            found: List[TraceRecord] = []
            for path, status in self._candidates():
                signature = (status.st_ino, status.st_size, status.st_mtime_ns, status.st_ctime_ns)
                previous = self._entries.get(path)
                if previous is not None and previous[0] == signature:
                    entry = previous[1]
                else:
                    try:
                        entry = self._record(path)
                    except (OSError, TraceValidationError) as error:
                        entry = str(error)
                # A file changed less than a timestamp tick before the scan
                # can change again without changing its signature: read it
                # next time.
                if scan_ns - status.st_ctime_ns > RACY_WINDOW_NS:
                    entries[path] = (signature, entry)
                if isinstance(entry, str):
                    invalid[path] = entry
                else:
                    found.append(entry)
            self._entries = entries
            self.invalid = invalid
            return found

    def load_all(self) -> List[ExecutionTrace]:
        """Parse and return every valid trace under the root, sorted by path.

        Each file is read and parsed once, whatever the previous scan saw;
        nothing is digested and the scan state :meth:`discover` reuses is
        left alone.  Files that fail validation are listed in
        :attr:`invalid`.
        """
        traces: List[ExecutionTrace] = []
        invalid: Dict[Path, str] = {}
        for path, _ in self._candidates():
            try:
                traces.append(ExecutionTrace.load(path))
            except (OSError, TraceValidationError) as error:
                invalid[path] = str(error)
        with self._lock:
            self.invalid = invalid
        return traces

    def _candidates(self) -> Iterator[Tuple[Path, os.stat_result]]:
        """Each regular, non-hidden file under the root that matches the
        pattern, sorted by path, with its ``stat``."""
        for path in sorted(self.root.rglob(self.pattern)):  # empty when root is missing
            # Hidden files/directories (.cache, .git ...) are never traces.
            relative = path.relative_to(self.root)
            if any(part.startswith(".") for part in relative.parts):
                continue
            try:
                status = path.stat()
            except OSError:
                continue  # vanished, or a dangling link
            if stat.S_ISREG(status.st_mode):
                yield path, status

    def _record(self, path: Path) -> TraceRecord:
        trace = ExecutionTrace.load(path)
        return TraceRecord(
            name=self._name_for(path),
            path=path,
            digest=trace.digest(),
            num_nodes=len(trace),
            num_operators=len(trace.operators()),
            metadata=dict(trace.metadata),
        )

    def _name_for(self, path: Path) -> str:
        relative = path.relative_to(self.root)
        return str(relative.with_suffix("")).replace("\\", "/")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.discover())

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.discover())

    def names(self) -> List[str]:
        return [record.name for record in self.discover()]

    def get(self, name: str) -> TraceRecord:
        """Record for ``name`` (the path under the root, without ``.json``)."""
        return self.select([name])[0]

    def select(self, names: Sequence[str]) -> List[TraceRecord]:
        """Records for ``names``, in that order, from one :meth:`discover`;
        an unknown name raises :class:`UnknownTraceError`."""
        records = {record.name: record for record in self.discover()}
        for name in names:
            if name not in records:
                raise UnknownTraceError(
                    f"no trace named {name!r} in {self.root}; known: {list(records)}"
                )
        return [records[name] for name in names]

    def load(self, name_or_record: Union[str, TraceRecord]) -> ExecutionTrace:
        """Load the full execution trace for a record, or for a name (which
        first runs one :meth:`discover` to resolve it)."""
        record = name_or_record if isinstance(name_or_record, TraceRecord) else self.get(name_or_record)
        return ExecutionTrace.load(record.path)

    def add(self, name: str, trace: ExecutionTrace) -> TraceRecord:
        """Serialise ``trace`` into the repository and return its record."""
        path = self.root / f"{name}.json"
        trace.save(path)
        return self._record(path)

