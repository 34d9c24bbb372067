"""Trace repository: discovery, validation and loading of serialised traces.

A repository is a directory of execution traces serialised as JSON by
:meth:`repro.et.trace.ExecutionTrace.save` (the same files
:class:`repro.core.generator.BenchmarkGenerator` emits next to generated
benchmarks).  Discovery walks the directory, loads each candidate file
through :meth:`ExecutionTrace.load`, and produces lightweight
:class:`TraceRecord` entries — path, content digest, node counts, metadata —
without keeping the full traces in memory.  Files that are not execution
traces (for instance the profiler traces the generator writes alongside)
are skipped and reported in :attr:`TraceRepository.invalid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.et.schema import TraceValidationError
from repro.et.trace import ExecutionTrace


@dataclass
class TraceRecord:
    """One discovered trace: everything the batch layer needs to schedule a
    replay without loading the full trace."""

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
        self._records: Optional[List[TraceRecord]] = None

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(self, refresh: bool = False) -> List[TraceRecord]:
        """Scan the root and return all valid trace records, sorted by name.

        Results are memoised; pass ``refresh=True`` to re-scan after files
        changed on disk.
        """
        if self._records is None or refresh:
            self._records = [record for record, _ in self._scan()]
        return list(self._records)

    def load_all(self) -> List[ExecutionTrace]:
        """Re-scan the root (refreshing :meth:`discover`) and return every valid
        trace, sorted by name; each file is read and parsed once."""
        loaded = list(self._scan())
        self._records = [record for record, _ in loaded]
        return [trace for _, trace in loaded]

    def _scan(self) -> Iterator[Tuple[TraceRecord, ExecutionTrace]]:
        self.invalid = {}
        for path in sorted(self.root.rglob(self.pattern)):  # empty when root is missing
            if not path.is_file():
                continue
            # Hidden files/directories (.cache, .git ...) are never traces.
            relative = path.relative_to(self.root)
            if any(part.startswith(".") for part in relative.parts):
                continue
            try:
                yield self._load(path)
            except (OSError, TraceValidationError) as error:
                self.invalid[path] = str(error)

    def _load(self, path: Path) -> Tuple[TraceRecord, ExecutionTrace]:
        trace = ExecutionTrace.load(path)
        return TraceRecord(
            name=self._name_for(path),
            path=path,
            digest=trace.digest(),
            num_nodes=len(trace),
            num_operators=len(trace.operators()),
            metadata=dict(trace.metadata),
        ), trace

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
        for record in self.discover():
            if record.name == name:
                return record
        raise KeyError(f"no trace named {name!r} in {self.root}; known: {self.names()}")

    def load(self, name_or_record: Union[str, TraceRecord]) -> ExecutionTrace:
        """Load the full execution trace for a name or record."""
        record = name_or_record if isinstance(name_or_record, TraceRecord) else self.get(name_or_record)
        return ExecutionTrace.load(record.path)

    def add(self, name: str, trace: ExecutionTrace) -> TraceRecord:
        """Serialise ``trace`` into the repository and return its record."""
        path = self.root / f"{name}.json"
        trace.save(path)
        self._records = None  # force re-discovery
        return self._load(path)[0]

