"""Declarative cross-device / cross-config sweeps.

A :class:`SweepSpec` names the traces to replay, the devices to replay them
on, and any additional :class:`~repro.core.replayer.ReplayConfig` axes (as
``field name -> list of values``).  :meth:`SweepSpec.expand` takes the cross
product and yields one fully-resolved config per grid point — exactly the
"evaluate this fleet of traces on A100 vs the new platform, across power
limits and scale-down factors" workflow of the paper's Sections 6.7/7.

:class:`SweepRunner` turns the grid into :class:`~repro.service.batch.ReplayJob`
objects against a :class:`~repro.service.repository.TraceRepository`, runs
them through a :class:`~repro.service.batch.BatchReplayer` (sharing its
result cache across invocations) and renders an aggregate report via
:mod:`repro.bench.aggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.replayer import ReplayConfig
from repro.service.batch import BatchReplayer, BatchResult, ReplayJob
from repro.service.cache import ResultCache
from repro.service.repository import TraceRecord, TraceRepository


@dataclass
class SweepSpec:
    """One declarative sweep: traces x devices x extra config axes."""

    #: Trace names to replay; ``None`` means every trace in the repository.
    traces: Optional[Sequence[str]] = None
    #: Devices to replay on (each becomes ``ReplayConfig.device``).
    devices: Sequence[str] = ("A100",)
    #: Extra grid axes: ``ReplayConfig`` field name -> values to sweep.
    #: e.g. ``{"power_limit_w": [None, 250.0], "comm_delay_scale": [1.0, 2.0]}``.
    axes: Dict[str, Sequence[Any]] = field(default_factory=dict)
    #: Template every grid point starts from (iterations, embedding values,
    #: interconnect ... anything not swept).
    base: ReplayConfig = field(default_factory=ReplayConfig)

    def expand(self) -> List[Tuple[str, ReplayConfig]]:
        """All (config label, config) grid points, in deterministic order."""
        unknown = [name for name in self.axes if name not in ReplayConfig.__dataclass_fields__]
        if unknown:
            raise ValueError(f"unknown ReplayConfig fields in sweep axes: {unknown}")
        axis_names = sorted(self.axes)
        points: List[Tuple[str, ReplayConfig]] = []
        for device in self.devices:
            for values in product(*(self.axes[name] for name in axis_names)):
                overrides = dict(zip(axis_names, values))
                config = replace(self.base, device=device, **overrides)
                label = device + "".join(
                    f",{name}={value}" for name, value in overrides.items()
                )
                points.append((label, config))
        return points


@dataclass
class SweepResult:
    """Everything one sweep produced."""

    spec: SweepSpec
    batch: BatchResult
    records: List[TraceRecord] = field(default_factory=list)

    @property
    def total_jobs(self) -> int:
        return len(self.batch)


class SweepRunner:
    """Expands a :class:`SweepSpec` against a repository and runs it.

    The runner owns the :class:`~repro.service.batch.BatchReplayer` it runs
    through: callers describe the execution policy (``cache``,
    ``max_workers``, ``backend``) and the runner builds the replayer, so
    batch construction stays inside the service layer.
    """

    def __init__(
        self,
        repository: TraceRepository,
        cache: Optional[ResultCache] = None,
        max_workers: Optional[int] = None,
        backend: str = "serial",
    ) -> None:
        self.repository = repository
        self.replayer = BatchReplayer(cache=cache, max_workers=max_workers, backend=backend)

    def records_for(self, spec: SweepSpec) -> List[TraceRecord]:
        """The trace records ``spec`` targets (all, or the named subset),
        from one discovery pass."""
        if spec.traces is None:
            records = self.repository.discover()
        else:
            records = self.repository.select(spec.traces)
        if not records:
            raise ValueError(f"no traces to sweep in {self.repository.root}")
        return records

    def jobs_for(self, spec: SweepSpec) -> List[ReplayJob]:
        """The fully-expanded job list for ``spec`` (no execution)."""
        return self._expand_jobs(spec, self.records_for(spec))

    @staticmethod
    def _expand_jobs(spec: SweepSpec, records: List[TraceRecord]) -> List[ReplayJob]:
        grid = spec.expand()
        return [
            ReplayJob.from_record(record, config, label=f"{record.name}@{config_label}")
            for record in records
            for config_label, config in grid
        ]

    def run(self, spec: SweepSpec) -> SweepResult:
        """Expand and execute the sweep through the batch replayer."""
        records = self.records_for(spec)
        batch = self.replayer.run(self._expand_jobs(spec, records))
        return SweepResult(spec=spec, batch=batch, records=records)
