"""Trace repository: discovery, validation and loading of serialised traces.

A repository is a directory of execution traces serialised as JSON by
:meth:`repro.et.trace.ExecutionTrace.save` (the same files
:class:`repro.core.generator.BenchmarkGenerator` emits next to generated
benchmarks).  Discovery walks the directory, loads each new or changed
candidate file through :meth:`ExecutionTrace.load`, and produces
lightweight :class:`TraceRecord` entries — path, content digest, node
counts, metadata.  Files that are not execution traces (for instance the
profiler traces the generator writes alongside) are skipped and reported
in :attr:`TraceRepository.invalid`.

Every read of a trace file for discovery, :meth:`TraceRepository.load` or
a replay (:func:`repro.service.batch.load_verified`) goes through
:func:`read_trace`, which keeps one process-wide table of parsed traces:
path → (``stat`` signature, digest, :class:`ExecutionTrace`).  A file whose
signature is unchanged since it was read, and which had settled then
(older than :data:`RACY_WINDOW_NS`), is served from the table — the same
staleness rules :meth:`TraceRepository.discover` trusts — so a sweep
reads, parses and digests each file version once per process.  The table
holds at most :data:`MAX_TRACE_TABLE_BYTES` of trace files (least recently
read dropped first).  A served trace is shared with every other reader
in the process, possibly on other threads: treat it as read-only.
"""

from __future__ import annotations

import os
import stat
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Sequence, Tuple, Union

from repro.et.schema import TraceValidationError
from repro.et.trace import ExecutionTrace

#: ``(st_ino, st_size, st_mtime_ns, st_ctime_ns)``: a file whose signature
#: is unchanged since the last scan is not read again.
Signature = Tuple[int, int, int, int]

#: A file whose ctime is this close to the scan is read again on the next
#: scan: a rewrite within the same timestamp tick (up to 2 s on coarse
#: filesystems) would leave its signature unchanged.
RACY_WINDOW_NS = 2_000_000_000

#: Most trace-file bytes (summed file sizes) the process keeps parsed in
#: the :func:`read_trace` table; the least recently read file is dropped
#: beyond it, and a larger file is never kept.  A parsed trace holds 5.6 to
#: 5.8 times its file size (tracemalloc, the PARAM-linear, RM and DDP-RM
#: captures, about 55 KiB of JSON each), so a full table holds about
#: 90 MiB.
MAX_TRACE_TABLE_BYTES = 16 << 20


def _signature(status: os.stat_result) -> Signature:
    return (status.st_ino, status.st_size, status.st_mtime_ns, status.st_ctime_ns)


class _TableEntry(NamedTuple):
    signature: Signature
    digest: str
    trace: ExecutionTrace


#: Guards :data:`_table` and :data:`_table_bytes`.
_table_lock = threading.Lock()
#: path → the file version last read from it, least recently read first.
_table: "OrderedDict[Path, _TableEntry]" = OrderedDict()
_table_bytes = 0


def read_trace(path: Union[str, Path], expected_digest: str = "") -> Tuple[ExecutionTrace, str]:
    """The parsed trace at ``path`` and its digest, read once per file
    version in the process (see the module docstring).

    A table entry serves the call when the file's ``stat`` signature is the
    one it was read under and, with ``expected_digest`` given, its digest
    is that one.  Otherwise the file is read, parsed and digested again;
    the result is kept only when the file had settled (changed more than
    :data:`RACY_WINDOW_NS` ago) and its digest is the expected one, so a
    file rewritten since discovery is never kept.  Raises what
    :meth:`ExecutionTrace.load` raises.
    """
    global _table_bytes
    path = Path(path)
    status = path.stat()
    signature = _signature(status)
    with _table_lock:
        # Only a settled file is kept, and its ctime is in its signature,
        # so a matching entry is still settled.
        entry = _table.get(path)
        if entry is not None and entry.signature == signature and expected_digest in ("", entry.digest):
            _table.move_to_end(path)
            return entry.trace, entry.digest
    trace = ExecutionTrace.load(path)
    digest = trace.digest()
    settled = time.time_ns() - status.st_ctime_ns > RACY_WINDOW_NS
    with _table_lock:
        stale = _table.pop(path, None)
        if stale is not None:
            _table_bytes -= stale.signature[1]
        if settled and expected_digest in ("", digest) and status.st_size <= MAX_TRACE_TABLE_BYTES:
            _table[path] = _TableEntry(signature, digest, trace)
            _table_bytes += status.st_size
            while _table_bytes > MAX_TRACE_TABLE_BYTES:
                _table_bytes -= _table.popitem(last=False)[1].signature[1]
    return trace, digest


def trace_table_stats() -> Dict[str, int]:
    """Traces the :func:`read_trace` table holds, and their file bytes."""
    with _table_lock:
        return {"traces": len(_table), "bytes": _table_bytes}


def clear_trace_table() -> None:
    """Forget every parsed trace (the next read of each file reads it)."""
    global _table_bytes
    with _table_lock:
        _table.clear()
        _table_bytes = 0


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
    them on (``load(record)`` reads at most that file).

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
                signature = _signature(status)
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
        trace, digest = read_trace(path)
        return TraceRecord(
            name=self._name_for(path),
            path=path,
            digest=digest,
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
        first runs one :meth:`discover` to resolve it), through
        :func:`read_trace`: the trace may be shared, so do not modify it
        (edit a copy, ``ExecutionTrace.from_dict(trace.to_dict())``)."""
        record = name_or_record if isinstance(name_or_record, TraceRecord) else self.get(name_or_record)
        return read_trace(record.path)[0]

    def add(self, name: str, trace: ExecutionTrace) -> TraceRecord:
        """Serialise ``trace`` into the repository and return its record."""
        path = self.root / f"{name}.json"
        trace.save(path)
        return self._record(path)

