"""Fleet plans: one set of build products for the ranks that share them.

In the DDP fleets Mystique replays, almost every rank records the same
operator graph and differs only in its rank.  What the build stages derive
from a trace — the selection (with the ``supported`` flags reconstruction
sets), the reconstructed callables and their failures, the tensor
classification, the stream assignment and the communication records with
their de-duplicated group descriptions — depends on the
node list, the config, the profiler trace and the support registry, never
on the rank.  :class:`~repro.cluster.engine.ClusterReplayer` therefore
gives every rank of one co-replay the :class:`FleetPlan` of its *plan key*:

* the node list, compared by content (ranks loaded from separate files
  share a plan with no digest computed);
* the :class:`~repro.core.replayer.ReplayConfig` with its rank cleared, so
  a per-rank override (another device, a power cap) makes its own plan;
* the profiler trace, by identity.

The support registry is the fourth part of the key, but one co-replay
hands every rank the same replay support, so it never splits a plan.

Only ranks whose node lists are equal share a plan.  Clones do
(:func:`~repro.bench.throughput.synthesize_fleet`, or production ranks
that record one graph), but the ranks of one
:class:`~repro.workloads.ddp.DistributedRunner` capture never do: each
node records its rank in ``attrs`` and the tensor ids count up across the
ranks' captures.  So :func:`plan_for` first buckets ranks by a cheap
sample of their node lists and compares full content only within a
bucket: a fleet whose ranks all differ gets one plan per rank, at no
node-list comparison.

The first rank to run a build stage builds its product onto the plan
(:meth:`~repro.core.pipeline.ReplayContext.shared`); every other rank of the
plan runs the same stage, with its hooks, and takes the product from the
plan.  The plan also holds the node bindings of the plan's vectorized
executors when :func:`~repro.core.vectorize.shared_bindings` allows it.  A
rank keeps its own runtime, clocks, profiler, tensors and executor
counters.  A plan lives for one co-replay only.

Nothing here may read a rank: the ``plan-rank-blind`` rule of
``scripts/check_deprecated_usage.py`` pins it, together with the build-stage
modules that fill the plan.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import Any, Dict, Hashable, List

from repro.cluster.rendezvous import CollectiveKey, normalize_op
from repro.core.comms_replay import CommPlan
from repro.core.pipeline import comm_plan
from repro.et.trace import ExecutionTrace
from repro.torchsim.distributed import GroupTable


class FleetPlan:
    """The build products shared by the ranks of one plan key."""

    def __init__(self, trace: ExecutionTrace, config: Any, profiler_trace: Any) -> None:
        #: The trace of the plan's first rank; its peers' node lists equal it.
        self.trace = trace
        #: The ranks' shared config, its rank cleared.
        self.config = config
        self.profiler_trace = profiler_trace
        #: Build product name -> product, filled as the ranks' stages run.
        self.products: Dict[str, Any] = {}
        self._collective_keys: Dict[GroupTable, List[CollectiveKey]] = {}

    def serves(self, trace: ExecutionTrace, config: Any, profiler_trace: Any) -> bool:
        """Whether a rank with these inputs (``config`` rank-cleared) has
        this plan's key."""
        return (
            profiler_trace is self.profiler_trace
            and config == self.config
            and (trace.nodes is self.trace.nodes or trace.nodes == self.trace.nodes)
        )

    def comms(self) -> CommPlan:
        """The plan's communication operators: the product ``init-comms``
        pre-creates its process groups from."""
        return comm_plan(self, self.trace, self.config)

    def collective_keys(self, groups: GroupTable) -> List[CollectiveKey]:
        """The plan's collective call sequence, keyed for the pre-flight
        match on ``groups``, its trace's recorded world's."""
        keys = self._collective_keys.get(groups)
        if keys is None:
            keys = self._collective_keys[groups] = collective_keys(self.comms(), groups)
        return keys


def collective_keys(comms: CommPlan, groups: GroupTable) -> List[CollectiveKey]:
    """The collective call sequence of ``comms``, keyed for matching."""
    keys: List[CollectiveKey] = []
    for record in comms.records:
        ranks = record.recorded_group.get("ranks")
        if isinstance(ranks, (list, tuple)) and ranks:
            group = groups.group(ranks, record.recorded_group.get("backend"))
        else:
            # No recorded group means the default group over the full world.
            group = groups.default_group
        keys.append((group, normalize_op(record.name)))
    return keys


def _bucket(trace: ExecutionTrace, profiler_trace: Any) -> Hashable:
    """A cheap stand-in for a rank's plan key: ranks with one key have one
    bucket.  Two nodes far apart in the node list stand in for it; equal
    nodes with unequal ``repr`` (say ``1`` and ``1.0``) only cost the
    sharing."""
    nodes = trace.nodes
    sample = (repr(nodes[len(nodes) // 2]), repr(nodes[-1])) if nodes else ()
    return id(profiler_trace), len(nodes), sample


def plan_for(
    plans: Dict[Hashable, List[FleetPlan]],
    trace: ExecutionTrace,
    config: Any,
    profiler_trace: Any,
) -> FleetPlan:
    """The plan in ``plans`` (bucketed by :func:`_bucket`) whose key a rank
    with these inputs has, or a new plan added to ``plans``."""
    key_config = dataclass_replace(config, rank=0)
    bucket = plans.setdefault(_bucket(trace, profiler_trace), [])
    for plan in bucket:
        if plan.serves(trace, key_config, profiler_trace):
            return plan
    plan = FleetPlan(trace, key_config, profiler_trace)
    bucket.append(plan)
    return plan
