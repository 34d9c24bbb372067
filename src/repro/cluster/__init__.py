"""``repro.cluster`` — multi-rank distributed replay.

The single-rank pipeline replays one trace at a time; this subsystem
replays a *fleet* of per-rank traces together under a virtual-time
collective scheduler, making straggler skew and communication/compute
overlap first-class measurements:

* :class:`~repro.cluster.rendezvous.EventRendezvous` matches each
  collective across ranks by (process-group ranks, sequence id, operator
  name), prices it once, and releases all participants at the same
  virtual completion time;
* :class:`~repro.cluster.replica.RankReplica` builds one rank's stage
  pipeline with the rendezvous-aware
  :class:`~repro.cluster.replica.SyncCollectivesStage`;
* :class:`~repro.cluster.scheduler.VirtualTimeScheduler` advances every
  rank's op cursor on a single thread, parking cursors on unresolved
  collectives and waking them when the rendezvous resolves — this is what
  lets one process co-replay thousands of ranks (and, via its
  ``interrupt`` hook, lets the daemon pause a cluster job at a
  rendezvous boundary);
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
from repro.cluster.replica import RankReplica, SyncCollectivesStage
from repro.cluster.rendezvous import (
    CollectiveEvent,
    CollectiveSyncError,
    EventRendezvous,
    RankBlocked,
    RendezvousStats,
)
from repro.cluster.scheduler import ClusterPaused, RankCursor, VirtualTimeScheduler

__all__ = [
    "ClusterMatchError",
    "ClusterPaused",
    "ClusterReplayError",
    "ClusterReplayer",
    "ClusterReport",
    "CollectiveEvent",
    "CollectiveMatchReport",
    "CollectiveSyncError",
    "EventRendezvous",
    "RankBlocked",
    "RankCursor",
    "RankReplica",
    "RankReport",
    "RendezvousStats",
    "SyncCollectivesStage",
    "VirtualTimeScheduler",
    "match_collectives",
]
