"""``repro.cluster`` — multi-rank distributed replay.

The single-rank pipeline replays one trace at a time; this subsystem
replays a *fleet* of per-rank traces together under a virtual-time
collective scheduler, making straggler skew and communication/compute
overlap first-class measurements:

* :class:`~repro.cluster.rendezvous.EventRendezvous` matches each
  collective across ranks by (process-group ranks, sequence id, operator
  name), prices it once, and releases all participants at the same
  virtual completion time;
* :class:`~repro.cluster.scheduler.VirtualTimeScheduler` advances every
  rank on a single thread.  A rank is one
  :class:`~repro.core.pipeline.ReplayContext` on the co-replay's one
  default stage pipeline, its runtime joined to the rendezvous.  The
  scheduler parks ranks on unresolved collectives and wakes them when the
  rendezvous resolves, which lets one process co-replay thousands of
  ranks.  A rank pauses and resumes like any single replay: at an
  iteration boundary, with a verified
  :class:`~repro.core.pipeline.ReplayCheckpoint`;
* :class:`~repro.cluster.engine.ClusterReplayer` pre-flight-matches the
  fleet, drives the scheduler, and aggregates the
  :class:`~repro.cluster.engine.ClusterReport` (per-rank
  exposed-communication time, rendezvous stall, slowest-rank critical
  path).

The public entry point is :func:`repro.api.replay_cluster`; the CLI
counterpart is ``python -m repro replay-dist <trace-dir>``.
"""

from repro.cluster.engine import (
    ClusterMatchError,
    ClusterReplayError,
    ClusterReplayer,
    ClusterReport,
    CollectiveMatchReport,
    RankReport,
    match_collectives,
)
from repro.cluster.rendezvous import (
    CollectiveEvent,
    CollectiveSyncError,
    EventRendezvous,
    RankBlocked,
    RendezvousStats,
)
from repro.cluster.scheduler import VirtualTimeScheduler

__all__ = [
    "ClusterMatchError",
    "ClusterReplayError",
    "ClusterReplayer",
    "ClusterReport",
    "CollectiveEvent",
    "CollectiveMatchReport",
    "CollectiveSyncError",
    "EventRendezvous",
    "RankBlocked",
    "RankReport",
    "RendezvousStats",
    "VirtualTimeScheduler",
    "match_collectives",
]
