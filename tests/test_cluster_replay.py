"""Tests for the multi-rank distributed replay engine (``repro.cluster``).

Covers the rendezvous matching/pricing semantics, the pre-flight fleet
match, the engine's aggregation (exposed-comm time, stall, critical path),
the single-replica equivalence with the single-rank pipeline, straggler
modelling, the ``repro.api.replay_cluster`` facade, and the
``python -m repro replay-dist`` CLI — including the 4-rank DDP smoke
replay the acceptance criteria call for.
"""

from __future__ import annotations

import copy
import gc
import itertools
import json
import re
from collections import Counter
from dataclasses import replace as dataclass_replace
from pathlib import Path

import pytest

import repro.api as api
from repro.bench.aggregate import format_cluster_report
from repro.bench.harness import compare_distributed
from repro.cluster import (
    ClusterMatchError,
    ClusterReplayer,
    CollectiveSyncError,
    match_collectives,
)
from repro.cluster.rendezvous import EventRendezvous, RankBlocked, normalize_op
from repro.core.pipeline import (
    CheckpointError,
    ReplayCheckpoint,
    ReplayContext,
    ReplayHook,
    ReplayPaused,
    ReplayPipeline,
    ReplayPipelineError,
    make_collective_cost_model,
    make_replay_runtime,
    run_replay,
)
from repro.core import vectorize
from repro.core.replayer import ReplayConfig
from repro.core.vectorize import program_environment
from repro.daemon.jobs import JobSnapshot
from repro.et.analyzer import CATEGORY_COMMS, categorize_node
from repro.hardware.network import CollectiveCostModel, InterconnectSpec
from repro.service.cli import main as cli_main
from repro.torchsim.distributed import DistributedContext, GroupTable, GroupTables
from repro.torchsim.ops.registry import OperatorRegistry
from repro.torchsim.runtime import Runtime
from repro.workloads.ddp import DistributedRunner
from tests.conftest import make_small_rm

WORLD = 4


@pytest.fixture(scope="module")
def fleet_captures():
    """One 4-rank DDP-RM capture set, shared across the module's tests."""
    runner = DistributedRunner(
        lambda rank, world: make_small_rm(rank=rank, world_size=world),
        world_size=WORLD,
    )
    return runner.run()


@pytest.fixture
def fleet_traces(fleet_captures):
    return [capture.execution_trace for capture in fleet_captures]


# ----------------------------------------------------------------------
# Rendezvous
# ----------------------------------------------------------------------
class TestEventRendezvous:
    groups = GroupTable(8)

    def make(self, participants=(0,)):
        return EventRendezvous(CollectiveCostModel(InterconnectSpec()), participants)

    def test_normalize_op(self):
        assert normalize_op("c10d::all_reduce") == "all_reduce"
        assert normalize_op("ALL_REDUCE") == "all_reduce"

    def test_sole_participant_resolves_immediately(self):
        rendezvous = self.make(participants=(0,))
        start, duration = rendezvous.sync(
            0, "all_reduce", self.groups.default_group, 1 << 20, arrival_us=100.0
        )
        assert start == 100.0
        # Priced at the *recorded* group size, exactly as the single-rank
        # pipeline would price it.
        expected = CollectiveCostModel(InterconnectSpec()).collective_us(
            "all_reduce", float(1 << 20), 8
        )
        assert duration == pytest.approx(expected)

    def test_singleton_group_is_free(self):
        rendezvous = self.make(participants=(0, 1))
        start, duration = rendezvous.sync(0, "all_reduce", self.groups.group([0]), 1 << 20, arrival_us=5.0)
        assert start == 5.0
        assert duration is None  # local no-op; the kernel model prices a memcpy

    def test_two_participants_release_at_common_time(self):
        """The event discipline: the first arrival parks (RankBlocked), the
        last arrival resolves the slot, ``take_ready`` names it, and the
        parked rank's retry reads the same (start, duration) release."""
        rendezvous = self.make(participants=(0, 1))
        with pytest.raises(RankBlocked) as blocked:
            rendezvous.sync(0, "all_reduce", self.groups.group([0, 1]), 1 << 20, arrival_us=10.0)
        assert rendezvous.take_ready() == []  # nothing resolved yet
        last = rendezvous.sync(1, "all_reduce", self.groups.group([0, 1]), 1 << 20, arrival_us=50.0)
        assert rendezvous.take_ready() == [blocked.value.slot]
        retried = rendezvous.sync(0, "all_reduce", self.groups.group([0, 1]), 1 << 20, arrival_us=10.0)
        assert retried == last
        start, duration = retried
        assert start == 50.0  # the slowest participant's arrival
        assert duration is not None and duration > 0
        stats = rendezvous.stats()
        assert stats.matched == 1
        assert stats.max_skew_us == pytest.approx(40.0)
        assert stats.stall_us_by_rank[0] == pytest.approx(40.0)
        assert stats.stall_us_by_rank[1] == pytest.approx(0.0)

    def test_retired_participant_fails_waiters(self):
        rendezvous = self.make(participants=(0, 1))
        rendezvous.retire(1)
        with pytest.raises(CollectiveSyncError, match="finished their trace"):
            rendezvous.sync(0, "all_reduce", self.groups.group([0, 1]), 1024, arrival_us=0.0)

    def test_fail_pending_breaks_deadlocks(self):
        """The scheduler's structural deadlock breaker: when every live
        cursor is parked, no slot can resolve — ``fail_pending`` fails them
        all so the retries surface a diagnosis instead of hanging."""
        rendezvous = self.make(participants=(0, 1))
        with pytest.raises(RankBlocked):
            rendezvous.sync(0, "all_reduce", self.groups.group([0, 1]), 1024, arrival_us=0.0)
        rendezvous.fail_pending("every live cursor is parked")
        assert rendezvous.take_ready() != []
        with pytest.raises(CollectiveSyncError, match="cannot resolve"):
            rendezvous.sync(0, "all_reduce", self.groups.group([0, 1]), 1024, arrival_us=0.0)


class TestBlockedCollectiveOutsideScheduler:
    """The single-rank pipeline drains the same step generator the cluster
    scheduler drives; a collective that blocks there has no peers to wait
    for and must fail with a typed pipeline error, never a raw signal."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_single_rank_pipeline_raises_pipeline_error(self, fleet_traces, vectorized):
        trace = fleet_traces[0]
        config = ReplayConfig(device="A100", vectorized=vectorized)
        runtime = make_replay_runtime(trace, config)
        runtime.dist.rendezvous = EventRendezvous(make_collective_cost_model(config), (0, 1))
        failed_stages = []

        class ErrorTap(ReplayHook):
            def on_error(self, context, stage, error):
                failed_stages.append((stage.name, type(error).__name__))

        context = ReplayContext(trace=trace, config=config, runtime=runtime, hooks=[ErrorTap()])
        with pytest.raises(ReplayPipelineError, match="rank blocked on collective") as raised:
            ReplayPipeline.default().run(context)
        assert not isinstance(raised.value, RankBlocked)
        assert raised.value.__context__ is None and raised.value.__cause__ is None
        assert failed_stages == [("execute", "ReplayPipelineError")]


# ----------------------------------------------------------------------
# Pre-flight matching
# ----------------------------------------------------------------------
class TestMatchCollectives:
    def test_symmetric_fleet_fully_matches(self, fleet_traces):
        report = match_collectives(fleet_traces)
        assert report.ok
        assert report.unmatched == []
        assert report.matched > 0
        # Every rank records the same number of collectives.
        assert len(set(report.per_rank_counts.values())) == 1

    def test_missing_collective_is_reported(self, fleet_traces):
        tampered = [copy.deepcopy(trace) for trace in fleet_traces]
        victim = tampered[2]
        comm_ids = [n.id for n in victim.operators() if categorize_node(n) == CATEGORY_COMMS]
        victim.nodes = [n for n in victim.nodes if n.id != comm_ids[0]]
        report = match_collectives(tampered)
        assert not report.ok
        assert any("rank(s) [2]" in line for line in report.unmatched)

    def test_strict_engine_refuses_mismatched_fleet(self, fleet_traces):
        tampered = [copy.deepcopy(trace) for trace in fleet_traces]
        comm_ids = [
            n.id for n in tampered[0].operators() if categorize_node(n) == CATEGORY_COMMS
        ]
        tampered[0].nodes = [n for n in tampered[0].nodes if n.id != comm_ids[-1]]
        with pytest.raises(ClusterMatchError, match="cannot be matched"):
            ClusterReplayer(ReplayConfig(device="A100")).replay(tampered)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class TestClusterReplayer:
    def test_four_rank_ddp_smoke_replay(self, fleet_captures):
        """The acceptance-criteria scenario: a 4-rank DDP-RM fleet replays
        with every collective matched and the report fully populated."""
        report = ClusterReplayer(ReplayConfig(device="A100")).replay(fleet_captures)
        assert report.num_replicas == WORLD
        assert report.world_size == WORLD
        assert report.unmatched_collectives == 0
        assert report.matched_collectives > 0
        assert [r.rank for r in report.ranks] == list(range(WORLD))
        for rank in report.ranks:
            assert rank.summary.replayed_ops > 0
            assert rank.comm_time_us > 0
            assert rank.exposed_comm_us > 0  # per-rank exposed-comm time
            assert rank.exposed_comm_us <= rank.comm_time_us + 1e-9
        # Slowest-rank critical path.
        assert report.critical_path_us == max(
            r.mean_iteration_time_us for r in report.ranks
        )
        assert report.straggler_rank in range(WORLD)

    def test_world_size_one_cluster_equals_single_rank_pipeline(self, fleet_captures):
        """A one-replica cluster replay is result-identical to the
        existing single-rank ``ReplayPipeline`` run of the same trace."""
        capture = fleet_captures[1]
        single = run_replay(
            capture.execution_trace,
            config=dataclass_replace(ReplayConfig(device="A100"), rank=capture.rank),
            profiler_trace=capture.profiler_trace,
        )
        cluster = ClusterReplayer(ReplayConfig(device="A100")).replay([capture])
        assert cluster.num_replicas == 1
        assert cluster.ranks[0].summary == single.summarize()

    def test_deterministic_across_runs(self, fleet_captures):
        replayer = ClusterReplayer(ReplayConfig(device="A100"))
        first = replayer.replay(fleet_captures)
        second = ClusterReplayer(ReplayConfig(device="A100")).replay(fleet_captures)
        assert first.to_dict() == second.to_dict()

    def test_straggler_override_shows_up_in_stall_and_critical_path(self, fleet_captures):
        base = ClusterReplayer(ReplayConfig(device="A100")).replay(fleet_captures)
        slow = ClusterReplayer(ReplayConfig(device="A100")).replay(
            fleet_captures, rank_overrides={0: {"device": "V100"}}
        )
        assert slow.straggler_rank == 0
        assert slow.critical_path_us > base.critical_path_us
        assert slow.max_skew_us > 0
        # The fast ranks stall inside the rendezvous waiting for rank 0.
        for rank in slow.ranks:
            if rank.rank != 0:
                assert rank.stall_us > 0

    def test_fleet_from_saved_traces_on_disk(self, fleet_captures, tmp_path):
        paths = DistributedRunner.save_captures(fleet_captures, tmp_path)
        assert len(paths) == WORLD
        from_disk = ClusterReplayer(ReplayConfig(device="A100")).replay(
            ClusterReplayer.load_fleet(tmp_path)
        )
        in_memory = ClusterReplayer(ReplayConfig(device="A100")).replay(
            [c.execution_trace for c in fleet_captures]
        )
        assert from_disk.to_dict() == in_memory.to_dict()

    def test_load_fleet_reads_each_file_once(self, fleet_captures, tmp_path, monkeypatch):
        paths = DistributedRunner.save_captures(fleet_captures, tmp_path)
        reads = Counter()
        real_open = Path.open

        def counting_open(path, *args, **kwargs):
            reads[path] += 1
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        fleet = ClusterReplayer.load_fleet(tmp_path)
        assert [int(trace.metadata["rank"]) for trace in fleet] == list(range(WORLD))
        assert reads == Counter({Path(path): 1 for path in paths})

    def test_load_fleet_digests_nothing(self, fleet_captures, tmp_path, monkeypatch):
        from repro.et.trace import ExecutionTrace

        DistributedRunner.save_captures(fleet_captures, tmp_path)
        (tmp_path / "notes.json").write_text("{}")
        digests = []
        real_digest = ExecutionTrace.digest
        monkeypatch.setattr(
            ExecutionTrace, "digest", lambda trace: digests.append(1) or real_digest(trace)
        )
        assert len(ClusterReplayer.load_fleet(tmp_path)) == WORLD
        assert digests == []

    def test_report_to_dict_and_formatting(self, fleet_captures):
        report = ClusterReplayer(ReplayConfig(device="A100")).replay(fleet_captures)
        data = report.to_dict()
        for key in (
            "critical_path_us",
            "straggler_rank",
            "mean_exposed_comm_us",
            "matched_collectives",
            "unmatched_collectives",
            "ranks",
        ):
            assert key in data
        json.dumps(data)  # JSON-serialisable throughout
        text = format_cluster_report(report)
        assert "critical path" in text
        assert "exposed_comm_ms" in text

    # ------------------------------------------------------------------
    # Error paths
    # ------------------------------------------------------------------
    def test_empty_fleet_is_rejected(self):
        with pytest.raises(ClusterMatchError, match="empty fleet"):
            ClusterReplayer().replay([])

    def test_duplicate_ranks_are_rejected(self, fleet_traces):
        with pytest.raises(ClusterMatchError, match="duplicate ranks"):
            ClusterReplayer().replay([fleet_traces[0], fleet_traces[0]])

    def test_unknown_rank_override_is_rejected(self, fleet_traces):
        with pytest.raises(ClusterMatchError, match="rank_overrides"):
            ClusterReplayer().replay(fleet_traces, rank_overrides={9: {"device": "V100"}})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rank", 3),
            ("world_size", 8),
            ("remap_world_size", 2),
            ("interconnect", InterconnectSpec()),
            ("topology", "rail-spine"),
            ("comm_delay_scale", 2.0),
            ("comm_extra_delay_us", 5.0),
        ],
    )
    def test_fleet_wide_rank_override_is_rejected(self, fleet_traces, field, value):
        """The rank, the world and the collective cost model describe the
        whole fleet: a per-rank override of one would be ignored by the
        shared rendezvous or cross-wire the ranks, so it is refused."""
        with pytest.raises(ClusterMatchError, match=field):
            ClusterReplayer(ReplayConfig(device="A100")).replay(
                fleet_traces, rank_overrides={1: {field: value}}
            )
        with pytest.raises(ClusterMatchError, match=field):
            api.replay_cluster(fleet_traces).configure_rank(1, **{field: value}).run()

    def test_world_smaller_than_fleet_is_rejected(self, fleet_traces):
        """A world that cannot cover the fleet's ranks would clamp replicas
        onto each other and deadlock the rendezvous — refuse it up front."""
        with pytest.raises(ClusterMatchError, match="cannot cover fleet ranks"):
            ClusterReplayer(ReplayConfig(device="A100", world_size=2)).replay(fleet_traces)

    def test_parked_collectives_leave_no_reference_cycles(self, fleet_traces):
        """Every rank parks on collectives, yet a co-replay's per-rank state
        is freed by reference counting: a retained ``RankBlocked``
        traceback would pin each aborted op's frames in a cycle."""
        ClusterReplayer(ReplayConfig(device="A100")).replay(fleet_traces)
        gc.collect()
        gc.disable()
        try:
            ClusterReplayer(ReplayConfig(device="A100")).replay(fleet_traces)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_single_replica_failure_raises_cluster_replay_error(self, fleet_traces):
        """A one-rank co-replay reports failures through the same
        ClusterReplayError contract as a full fleet (the CLI relies on it),
        even when the rank fails while creating its runtime."""
        from repro.cluster import ClusterReplayError

        with pytest.raises(ClusterReplayError, match="rank 0"):
            ClusterReplayer(ReplayConfig(device="NoSuchDevice")).replay([fleet_traces[0]])

    def test_all_ranks_parked_fails_every_rank(self, fleet_traces):
        """With one collective removed from rank 2, every rank ends up
        parked on a collective no peer will reach.  The scheduler fails
        the pending slots instead of hanging, so a lenient co-replay raises
        ClusterReplayError naming every rank with CollectiveSyncError."""
        from repro.cluster import ClusterReplayError

        tampered = [copy.deepcopy(trace) for trace in fleet_traces]
        victim = tampered[2]
        comm_ids = [n.id for n in victim.operators() if categorize_node(n) == CATEGORY_COMMS]
        victim.nodes = [n for n in victim.nodes if n.id != comm_ids[0]]
        runs = (
            lambda: ClusterReplayer(ReplayConfig(device="A100"), strict_match=False).replay(
                tampered
            ),
            lambda: api.replay_cluster(tampered).lenient_match().run(),
        )
        for run in runs:
            with pytest.raises(ClusterReplayError) as raised:
                run()
            assert sorted(raised.value.errors) == list(range(WORLD))
            for message in raised.value.errors.values():
                assert message.startswith("CollectiveSyncError: ")

    def test_warmup_iterations_do_not_inflate_rendezvous_stats(self, fleet_captures):
        """Stall/skew/matched are windowed to the measured region, like
        every other reported metric: extra warm-up iterations must not
        change the measured collective count, and the steady-state stall
        is independent of how many warm-ups preceded it."""
        overrides = {0: {"device": "V100"}}
        cold = ClusterReplayer(ReplayConfig(device="A100", iterations=1)).replay(
            fleet_captures, rank_overrides=overrides
        )
        warm_counts = {}
        warm_stalls = {}
        for warmups in (1, 2):
            report = ClusterReplayer(
                ReplayConfig(device="A100", iterations=1, warmup_iterations=warmups)
            ).replay(fleet_captures, rank_overrides=overrides)
            warm_counts[warmups] = report.matched_collectives
            warm_stalls[warmups] = {r.rank: r.stall_us for r in report.ranks}
        # Same number of *measured* collectives no matter the warm-up count.
        assert warm_counts[1] == warm_counts[2] == cold.matched_collectives
        # Steady state: a second warm-up changes nothing measured.
        for rank in range(WORLD):
            assert warm_stalls[1][rank] == pytest.approx(warm_stalls[2][rank])


# ----------------------------------------------------------------------
# Singleton-collective pricing (remap degenerate case)
# ----------------------------------------------------------------------
class TestSingletonCollectivePricing:
    def _all_reduce_duration(self, pg, world_size=WORLD) -> float:
        dist = DistributedContext(rank=0, world_size=world_size) if world_size > 1 else None
        runtime = Runtime("A100", dist=dist)
        from repro.torchsim.tensor import Tensor

        runtime.call("c10d::all_reduce", [Tensor.empty((1024, 1024))], "sum", pg, False)
        (launch,) = [k for k in runtime.gpu.launches if k.desc.name.startswith("nccl")]
        return launch.duration

    def test_singleton_group_prices_as_local_noop(self):
        """A recorded group folded onto one rank pays no alpha-beta cost:
        it is priced exactly like the world-size-1 local no-op, not through
        the interconnect model."""
        singleton = self._all_reduce_duration({"ranks": [0], "backend": "nccl"})
        local_noop = self._all_reduce_duration(None, world_size=1)
        assert singleton == pytest.approx(local_noop)
        full = self._all_reduce_duration({"ranks": list(range(WORLD)), "backend": "nccl"})
        priced = CollectiveCostModel(InterconnectSpec()).all_reduce_us(
            float(1024 * 1024 * 4), WORLD
        )
        assert full == pytest.approx(priced)

    def test_remapped_replay_to_world_one_still_replays(self, fleet_captures):
        """remap_world_size=1 folds every group to a singleton; the replay
        must complete with comms priced as free local no-ops."""
        capture = fleet_captures[0]
        result = run_replay(
            capture.execution_trace,
            config=ReplayConfig(device="A100", world_size=1, remap_world_size=1),
        )
        assert result.replayed_ops > 0


# ----------------------------------------------------------------------
# Process-group table
# ----------------------------------------------------------------------
class TestGroupTable:
    """One table per world interns one group per (sorted ranks, backend);
    the rendezvous, the pre-flight match and group lookup all key on it."""

    def test_for_description_is_find_or_create(self):
        groups = GroupTable(8)
        description = {"ranks": [0, 2, 4, 6], "backend": "nccl"}
        first = groups.for_description(description)
        assert groups.for_description(dict(description)) is first
        assert groups.for_description({"ranks": [0, 2, 4, 6], "backend": "gloo"}) is not first

    def test_default_group_is_the_world(self):
        groups = GroupTable(8)
        assert groups.default_group.ranks == tuple(range(8))
        world = {"ranks": list(range(8)), "backend": "nccl"}
        assert groups.for_description(world) is groups.default_group
        dist = DistributedContext(rank=3, world_size=8, groups=groups)
        assert dist.groups is groups and dist.default_group is groups.default_group

    def test_many_groups_still_resolve_each_exactly(self):
        groups = GroupTable(64)
        created = [groups.group([r, r + 32]) for r in range(32)]
        for rank, group in enumerate(created):
            found = groups.for_description({"ranks": [rank, rank + 32], "backend": "nccl"})
            assert found is group

    def test_description_without_ranks_is_the_default_group(self):
        groups = GroupTable(8)
        assert groups.for_description({"pg_id": 0, "backend": "nccl"}) is groups.default_group
        assert len(groups) == 1

    def test_non_int_recorded_ranks_resolve_without_new_groups(self):
        groups = GroupTable(8)
        group = groups.for_description({"ranks": ["0", "2"], "backend": "nccl"})
        assert group.ranks == (0, 2)
        assert groups.for_description({"ranks": ["0", "2"], "backend": "nccl"}) is group
        assert len(groups) == 2

    def test_ranks_are_sorted_once_and_groups_hash_by_identity(self):
        groups = GroupTable(4)
        group = groups.group([3, 1, 2])
        assert group.ranks == (1, 2, 3)
        assert groups.group(iter([2, 3, 1])) is group
        assert groups.group((1, 2, 3)) is group
        assert hash(group) == object.__hash__(group)
        assert len(groups) == 2

    def test_groups_order_by_ranks_not_creation(self):
        groups = GroupTable(4)
        later = groups.group([2, 3])
        earlier = groups.group([0, 1])
        assert later.pg_id < earlier.pg_id
        assert sorted([later, groups.default_group, earlier]) == [
            earlier, groups.default_group, later
        ]

    def test_tables_are_per_world(self):
        tables = GroupTables()
        assert tables[4] is tables[4]
        assert tables[4] is not tables[8]
        assert tables[8].default_group.size == 8

    def test_rendezvous_matches_on_the_interned_group(self):
        rendezvous = EventRendezvous(CollectiveCostModel(InterconnectSpec()), (0, 1))
        group = rendezvous.group_tables[2].group([1, 0])
        with pytest.raises(RankBlocked) as blocked:
            rendezvous.sync(0, "all_reduce", group, 1024, arrival_us=0.0)
        assert blocked.value.slot == (group, "all_reduce", 0)
        assert str(blocked.value) == "rank blocked on collective all_reduce[0] over ranks [0, 1]"
        same = rendezvous.group_tables[2].group([0, 1])
        rendezvous.sync(1, "c10d::all_reduce", same, 1024, arrival_us=5.0)
        assert rendezvous.sync(0, "all_reduce", group, 1024, arrival_us=0.0)[0] == 5.0

    def test_preflight_keys_are_the_replayed_groups(self, fleet_traces):
        from repro.cluster.plan import collective_keys
        from repro.core.comms_replay import CommPlan

        groups = GroupTable(WORLD)
        for group, op in collective_keys(CommPlan.build(fleet_traces[0]), groups):
            assert group is groups.default_group
            assert op in ("all_reduce", "all_to_all")


class _BarrierWorkload:
    """A tiny DDP PARAM-linear step that ends in a ``c10d::barrier``."""

    def __init__(self, rank, world):
        from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload

        self.inner = ParamLinearWorkload(
            ParamLinearConfig(batch_size=8, num_layers=2, hidden_size=16, input_size=16),
            distributed=True,
        )
        self.name = "param_linear_barrier"

    def run_iteration(self, runtime):
        self.inner.run_iteration(runtime)
        runtime.call("c10d::barrier", runtime.dist.default_group.describe(), False)


class TestFleetGroupTable:
    """Every rank of a co-replay resolves its groups through its world's one
    table, owned by the rendezvous; no rank builds its own world."""

    def test_one_world_group_and_one_table_for_64_ranks(self, monkeypatch):
        from repro.bench.throughput import synthesize_fleet
        from repro.cluster import scheduler
        from repro.torchsim import distributed

        fleet = synthesize_fleet(64)
        worlds = []
        post_init = distributed.ProcessGroup.__post_init__

        def counting_post_init(group):
            post_init(group)
            if group.size == 64:
                worlds.append(group)

        tables = []
        make_runtime = scheduler.make_replay_runtime

        def recording_make_runtime(*args, **kwargs):
            runtime = make_runtime(*args, **kwargs)
            tables.append(runtime.dist.groups)
            return runtime

        monkeypatch.setattr(distributed.ProcessGroup, "__post_init__", counting_post_init)
        monkeypatch.setattr(scheduler, "make_replay_runtime", recording_make_runtime)
        report = ClusterReplayer(
            ReplayConfig(iterations=1, warmup_iterations=0, world_size=64)
        ).replay(fleet)
        assert report.unmatched_collectives == 0 and report.matched_collectives > 0
        assert len(worlds) == 1
        assert len(tables) == 64 and len({id(table) for table in tables}) == 1
        assert tables[0].default_group is worlds[0]

    def test_ranks_of_different_worlds_do_not_share_a_table(self, fleet_traces):
        tables = GroupTables()
        config = ReplayConfig()
        small = make_replay_runtime(fleet_traces[0], config, group_tables=tables)
        peer = make_replay_runtime(fleet_traces[1], config, group_tables=tables)
        large = make_replay_runtime(
            fleet_traces[2], dataclass_replace(config, world_size=2 * WORLD), group_tables=tables
        )
        assert small.dist.groups is peer.dist.groups is tables[WORLD]
        assert large.dist.groups is tables[2 * WORLD]
        assert large.dist.groups is not small.dist.groups
        # Without the fleet's tables, a replay keeps a private one.
        assert make_replay_runtime(fleet_traces[0], config).dist.groups is not tables[WORLD]

    def test_blocked_slot_reads_as_op_seq_and_ranks(self, fleet_captures):
        from repro.telemetry import Tracer

        tracer = Tracer()
        api.replay_cluster(fleet_captures).iterations(1).with_telemetry(tracer).run()
        slots = [event.attributes["slot"] for event in tracer.events if event.name == "park"]
        assert slots
        for slot in slots:
            assert re.fullmatch(r"(all_reduce|all_to_all)\[\d+\] over ranks \[0, 1, 2, 3\]", slot)

    def test_barrier_fleet_co_replays_matched_and_vectorized_equals_scalar(self):
        captures = DistributedRunner(_BarrierWorkload, world_size=WORLD).run()
        barriers = [
            node
            for node in captures[0].execution_trace.operators()
            if node.name == "c10d::barrier"
        ]
        assert barriers

        def run(vectorized):
            return ClusterReplayer(
                ReplayConfig(iterations=2, warmup_iterations=1, vectorized=vectorized)
            ).replay(captures)

        fast, scalar = run(True), run(False)
        assert fast.unmatched_collectives == 0
        assert fast.matched_collectives == scalar.matched_collectives > 0
        assert json.dumps(fast.to_dict(), sort_keys=True) == json.dumps(
            scalar.to_dict(), sort_keys=True
        )
        # Every recorded collective of each measured iteration matched,
        # the barrier included.
        from repro.cluster.plan import collective_keys
        from repro.core.comms_replay import CommPlan

        keys = collective_keys(CommPlan.build(captures[0].execution_trace), GroupTable(WORLD))
        assert [op for _, op in keys].count("barrier") == len(barriers)
        assert fast.matched_collectives == 2 * len(keys)


# ----------------------------------------------------------------------
# The process's program table
# ----------------------------------------------------------------------
class TestProgramStore:
    """Every replay, single-rank or co-replay, learns into the process's
    one program table for its environment: the ranks of a co-replay share
    it, and every later replay starts from what the earlier ones captured."""

    @staticmethod
    def _learned(stats, key="programs_captured"):
        return sum(s[key] for s in stats)

    def test_one_store_per_co_replay(self, fleet_traces):
        seen = []

        class StoreProbe(ReplayHook):
            def on_stage_end(self, context, stage):
                if stage.name == "execute":
                    executor = context.extras[vectorize.EXTRAS_KEY]
                    environment = program_environment(context.runtime)
                    seen.append((executor._programs, environment, dict(executor.stats)))

            def report(self, **_):
                return None

        replayer = ClusterReplayer(
            ReplayConfig(iterations=1, warmup_iterations=0),
            profile_hook_factory=lambda rank: StoreProbe(),
        )
        vectorize.clear()
        replayer.replay(fleet_traces)
        first = seen[:]
        replayer.replay(fleet_traces)
        tables = [programs for programs, _, _ in seen]
        assert len(first) == WORLD and len(seen) == 2 * WORLD
        assert isinstance(tables[0], dict)
        # Every rank of both co-replays learns into the process's table.
        assert all(table is tables[0] for table in tables)
        assert all(vectorize.partition(environment) is tables[0] for _, environment, _ in seen)
        # The cold co-replay captures; the second one starts from the
        # programs the first one captured and captures none.
        assert self._learned(s for _, _, s in first) > 0
        assert self._learned(s for _, _, s in seen[WORLD:]) == 0
        assert self._learned((s for _, _, s in seen[WORLD:]), "fast_ops") > 0

    def test_single_rank_replay_learns_into_the_process_table(self, fleet_traces):
        # One iteration: a signature that occurs once is captured by the
        # first replay and verified by the second.
        config = ReplayConfig(world_size=1, iterations=1)

        def replay():
            context = ReplayContext(trace=fleet_traces[0], config=config)
            ReplayPipeline.default().run(context)
            return context.extras[vectorize.EXTRAS_KEY]

        vectorize.clear()
        cold = replay()
        assert cold.stats["programs_captured"] > 0
        assert cold._programs is vectorize.partition(program_environment(Runtime()))
        assert len(vectorize._partitions) == 1
        warm = replay()
        assert warm._programs is cold._programs
        assert warm.stats["programs_captured"] == 0
        assert warm.stats["programs_verified"] > 0
        assert warm.stats["fast_ops"] > cold.stats["fast_ops"]

    def test_environment_excludes_the_rank(self):
        base = program_environment(Runtime(device="A100", rank=0))
        assert program_environment(Runtime(device="A100", rank=5)) == base
        # Nor the clock: a power-capped runtime prices the same programs.
        assert program_environment(Runtime(device="A100", power_limit_w=250.0)) == base
        for other in (
            Runtime(device="V100"),
            Runtime(device="A100", cost_model_mode="flops"),
            Runtime(device="A100", registry=OperatorRegistry()),
        ):
            assert program_environment(other) != base

    def test_environment_follows_the_registry_generation(self):
        from repro.torchsim.ops.registry import OperatorDef, global_registry

        registry = OperatorRegistry()
        runtime = Runtime(registry=registry)
        before = program_environment(runtime)
        relu = global_registry.get("aten::relu")
        registry.register(relu)
        added = program_environment(runtime)
        registry.register(
            OperatorDef(name=relu.name, schema_str=relu.schema_str, category=relu.category,
                        fn=lambda ctx, *args: None),
            overwrite=True,
        )
        assert len({before, added, program_environment(runtime)}) == 3

    @staticmethod
    def _program(signature, state=vectorize._DEAD):
        return vectorize.OpProgram(
            signature=signature, op_name="aten::relu", thread="main", node_count=1,
            increments=[], kernels=[], events=[], outputs=None, state=state,
        )

    def test_partitions_follow_the_environment(self):
        rank0 = program_environment(Runtime(rank=0))
        shared = vectorize.partition(rank0)
        vectorize.publish(shared, self._program("relu"))
        assert vectorize.partition(program_environment(Runtime(rank=3))) is shared
        assert "relu" in shared
        assert vectorize.partition(program_environment(Runtime(device="V100", rank=1))) == {}

    def test_a_partition_is_created_by_its_first_replay(self):
        assert len(vectorize._partitions) == 0
        table = vectorize.partition(("environment", 0))
        assert table == {} and list(vectorize._partitions) == [("environment", 0)]
        # A capture is published at once, unverified: the next replay of
        # the environment finds it.
        candidate = self._program("relu", vectorize._UNVERIFIED)
        assert vectorize.publish(table, candidate) is candidate
        assert vectorize.partition(("environment", 0)) is table
        assert table["relu"] is candidate and candidate.state == vectorize._UNVERIFIED

    def test_retention_is_bounded(self):
        for index in range(2):
            vectorize.publish(vectorize.partition(("environment", index)), self._program("relu"))
        kept = vectorize.partition(("environment", 0))
        evicted = vectorize.partition(("environment", 1))
        for index in range(2, vectorize.MAX_ENVIRONMENTS + 4):
            vectorize.partition(("environment", index))
            # Environment 0 is replayed again each time: least recently
            # used is environment 1, then 2, ...
            vectorize.partition(("environment", 0))
        assert len(vectorize._partitions) == vectorize.MAX_ENVIRONMENTS
        assert vectorize.partition(("environment", 0)) is kept
        assert vectorize.partition(("environment", 1)) == {} and evicted

        vectorize.clear()
        kept = vectorize.partition(("environment", 0))
        for index in range(vectorize.MAX_PROGRAMS + 3):
            vectorize.publish(kept, self._program(index))
        assert len(kept) == vectorize.MAX_PROGRAMS
        assert 0 not in kept and vectorize.MAX_PROGRAMS + 2 in kept
        # A signature published first stays: a concurrent replay that
        # captures it again gets the first program back.
        first = kept[5]
        assert vectorize.publish(kept, self._program(5)) is first
        assert kept[5] is first

    def test_the_first_replay_to_settle_a_candidate_wins(self):
        candidate = self._program("relu", vectorize._UNVERIFIED)
        assert vectorize.settle(candidate, vectorize._VERIFIED)
        assert not vectorize.settle(candidate, vectorize._DEAD)
        assert candidate.state == vectorize._VERIFIED

    def test_a_program_keeps_its_kernels_priced_at_a_bounded_number_of_clocks(self):
        from repro.torchsim.kernel import KernelDesc, KernelKind, OpCategory

        desc = KernelDesc(name="gemm", kind=KernelKind.GEMM, flops=1e9, bytes_read=1e6)
        program = self._program("gemm", vectorize._VERIFIED)
        program.kernels = [(desc, 1, 7, 0, "aten::mm", OpCategory.ATEN)]
        runtimes = [Runtime(power_limit_w=100.0 + 10.0 * step) for step in range(12)]
        for runtime in runtimes:
            cost = runtime.cost_model
            priced = vectorize._priced(program, cost)
            assert priced == ((desc, 1, cost.duration_us(desc), 7, 0, "aten::mm", OpCategory.ATEN),)
            # Priced once per clock: a second bind reads the same tuple.
            assert vectorize._priced(program, cost) is priced
        assert list(program.priced) == [
            runtime.cost_model.clock_scale for runtime in runtimes[-vectorize.MAX_CLOCKS:]
        ]


# ----------------------------------------------------------------------
# Fleet plans
# ----------------------------------------------------------------------
class _PlanProbe(ReplayHook):
    """Records each rank's fleet plan and executor when its execute stage
    ends (a ``profile_hook_factory`` hook with no report)."""

    def __init__(self, rank, sink):
        self.rank = rank
        self.sink = sink

    def on_stage_end(self, context, stage):
        if stage.name == "execute":
            self.sink[self.rank] = (context.plan, context.extras.get(vectorize.EXTRAS_KEY))

    def report(self, **_):
        return None


def _plans(fleet, overrides=None, profiler_traces=None):
    """Co-replay ``fleet`` and return ``rank -> (plan, executor)``."""
    sink = {}
    replayer = ClusterReplayer(
        ReplayConfig(iterations=1, warmup_iterations=0, world_size=len(fleet)),
        profile_hook_factory=lambda rank: _PlanProbe(rank, sink),
    )
    replayer.replay(fleet, profiler_traces=profiler_traces, rank_overrides=overrides)
    return sink


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` counts calls of ``owner.name`` from
    now on; returns a one-element list holding the count."""

    def install(owner, name, static=False):
        calls = [0]
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, staticmethod(counting) if static else counting)
        return calls

    return install


class TestFleetPlan:
    """Ranks with the same trace content, config and profiler trace share
    one plan: the build stages run once for it, the comm records are
    extracted once for the pre-flight match and every rank's init-comms,
    and the node bindings are the plan's."""

    def test_build_stages_run_once_per_plan(self, count_calls):
        from repro.bench.throughput import synthesize_fleet
        from repro.core.comms_replay import CommReplayManager
        from repro.core.selection import OperatorSelector

        fleet = synthesize_fleet(8)
        selects = count_calls(OperatorSelector, "select")
        extracts = count_calls(CommReplayManager, "extract", static=True)
        plans = _plans(fleet)
        assert selects == [1] and extracts == [1]
        assert len({id(plan) for plan, _ in plans.values()}) == 1
        bindings = {id(executor._bindings) for _, executor in plans.values()}
        assert len(bindings) == 1

        overrides = {3: {"device": "V100"}, 5: {"power_limit_w": 250.0}}
        first = plans[0][0]
        plans = _plans(fleet, overrides=overrides)
        assert selects == [4] and extracts == [4]
        by_rank = {rank: plan for rank, (plan, _) in plans.items()}
        # A plan lives for one co-replay.
        assert first not in by_rank.values()
        assert len({id(plan) for plan in by_rank.values()}) == 3
        assert by_rank[3] is not by_rank[5]
        assert all(by_rank[rank] is by_rank[0] for rank in (1, 2, 4, 6, 7))

    def test_loaded_clones_share_one_plan(self, tmp_path, count_calls):
        from repro.bench.throughput import synthesize_fleet
        from repro.cluster.plan import FleetPlan
        from repro.core.selection import OperatorSelector

        for trace in synthesize_fleet(4):
            trace.save(tmp_path / f"rank{trace.metadata['rank']}.json")
        fleet = ClusterReplayer.load_fleet(tmp_path)
        assert fleet[0].nodes is not fleet[1].nodes
        selects = count_calls(OperatorSelector, "select")
        compares = count_calls(FleetPlan, "serves")
        plans = _plans(fleet)
        # Every later rank compares its node list with the one plan's.
        assert selects == [1] and compares == [3]
        assert len({id(plan) for plan, _ in plans.values()}) == 1

    def test_other_nodes_or_profiler_traces_get_their_own_plan(
        self, fleet_captures, count_calls
    ):
        from repro.bench.throughput import synthesize_fleet
        from repro.core.selection import OperatorSelector

        fleet = synthesize_fleet(WORLD)
        # Rank 2 records one more annotation attribute: other content.
        nodes = list(fleet[2].nodes)
        nodes[0] = dataclass_replace(nodes[0], attrs={**nodes[0].attrs, "note": "x"})
        fleet[2] = dataclass_replace(fleet[2], nodes=nodes)
        profiler = fleet_captures[0].profiler_trace
        # Rank 3's profiler trace is an equal copy, but not the same one.
        profilers = [profiler, profiler, profiler, copy.copy(profiler)]
        selects = count_calls(OperatorSelector, "select")
        plans = {rank: plan for rank, (plan, _) in _plans(fleet, profiler_traces=profilers).items()}
        assert selects == [3]
        assert plans[0] is plans[1]
        assert len({id(plans[rank]) for rank in (0, 2, 3)}) == 3

    def test_captured_ranks_get_their_own_plans_without_comparisons(
        self, fleet_traces, count_calls
    ):
        """A captured fleet's ranks differ (each node records its rank and
        the tensor ids count up across captures), so each rank gets its
        own plan, and no rank compares its node list with another's."""
        from repro.cluster.plan import FleetPlan
        from repro.core.selection import OperatorSelector

        assert fleet_traces[0].nodes != fleet_traces[1].nodes
        selects = count_calls(OperatorSelector, "select")
        compares = count_calls(FleetPlan, "serves")
        plans = _plans(fleet_traces)
        assert selects == [WORLD] and compares == [0]
        assert len({id(plan) for plan, _ in plans.values()}) == WORLD

    def test_single_replay_builds_no_plan(self, fleet_traces, count_calls):
        from repro.cluster.plan import FleetPlan

        plans = []

        class Probe(ReplayHook):
            def on_stage_end(self, context, stage):
                plans.append(context.plan)

        created = count_calls(FleetPlan, "__init__")
        api.replay(fleet_traces[0]).configure(world_size=1).hook(Probe()).run()
        assert created == [0]
        assert plans and all(plan is None for plan in plans)

    def test_a_user_op_keeps_bindings_per_rank(self):
        """Built-in ops hand every rank the same inputs, so a plan shares
        its bindings.  A user op may return rank-dependent outputs — here
        ``aten::relu_`` returns a wider tensor on odd ranks, so the next
        linear layer costs more there — and then each rank binds its own
        nodes, and the report stays equal to the scalar loop's."""
        from repro.bench.throughput import synthesize_fleet
        from repro.torchsim.ops.registry import OperatorDef, global_registry
        from repro.torchsim.tensor import Tensor

        fleet = synthesize_fleet(WORLD)
        name = "aten::relu_"
        original = global_registry.get(name)

        def rank_wide(ctx, tensor, *args, **kwargs):
            result = original.fn(ctx, tensor, *args, **kwargs)
            if ctx.runtime.rank % 2 and len(tensor.shape) == 2:
                return Tensor(shape=(tensor.shape[0] * 64, tensor.shape[1]), dtype=tensor.dtype)
            return result

        def run(vectorized):
            replayer = ClusterReplayer(
                ReplayConfig(
                    iterations=2, warmup_iterations=1, world_size=WORLD, vectorized=vectorized
                ),
                profile_hook_factory=lambda rank: _PlanProbe(rank, sink),
            )
            return json.dumps(replayer.replay(fleet).to_dict(), sort_keys=True)

        global_registry.register(
            OperatorDef(
                name=name,
                schema_str=original.schema_str,
                category=original.category,
                fn=rank_wide,
                library=original.library,
            ),
            overwrite=True,
        )
        try:
            sink = {}
            scalar = run(False)
            sink = {}
            fast = run(True)
        finally:
            global_registry.register(original, overwrite=True)
        assert fast == scalar
        assert len({id(executor._bindings) for _, executor in sink.values()}) == WORLD
        # The odd ranks really computed longer (the even ones stall for
        # them), so a binding shared across ranks would have shown.
        stalls = [rank["stall_us"] for rank in json.loads(fast)["ranks"]]
        assert stalls[0] > stalls[1] and stalls[2] > stalls[3]


# ----------------------------------------------------------------------
# api facade
# ----------------------------------------------------------------------
class TestReplayClusterFacade:
    def test_fluent_session_matches_engine(self, fleet_captures):
        via_api = api.replay_cluster(fleet_captures).on("A100").run()
        via_engine = ClusterReplayer(ReplayConfig(device="A100")).replay(fleet_captures)
        assert via_api.to_dict() == via_engine.to_dict()

    def test_world_override_reprices_collectives(self, fleet_captures):
        small = api.replay_cluster(fleet_captures).on("A100").run()
        # Price the same fleet as if the groups ran at 64 ranks: the
        # recorded groups stay as-is, but each replica's distributed
        # context (and cost model) sees the bigger world.
        big = api.replay_cluster(fleet_captures).on("A100").world(64).run()
        assert big.world_size == 64
        assert small.world_size == WORLD

    def test_configure_rank_builds_rank_overrides(self, fleet_captures):
        report = (
            api.replay_cluster(fleet_captures)
            .on("A100")
            .configure_rank(0, device="V100")
            .run()
        )
        assert report.straggler_rank == 0

    def test_session_accepts_directory_source(self, fleet_captures, tmp_path):
        DistributedRunner.save_captures(fleet_captures, tmp_path)
        report = api.replay_cluster(tmp_path).on("A100").iterations(1).run()
        assert report.num_replicas == WORLD
        assert report.unmatched_collectives == 0


# ----------------------------------------------------------------------
# Pause/resume: a fleet checkpoints exactly like a single replay
# ----------------------------------------------------------------------
class TestFleetPauseResumePin:
    """The pause request is a boundary counter shared by every rank, never
    a timer: it lands at one rank's iteration boundary with that rank's
    checkpoint, and resume re-executes the fleet and verifies it there."""

    CONFIG = ReplayConfig(device="A100", iterations=2, warmup_iterations=1)
    #: Each rank crosses three boundaries; the third ends its replay, where
    #: finishing beats pausing.
    BOUNDARY_CALLS = WORLD * 3
    PAUSABLE = {(rank, 1, done) for rank in range(WORLD) for done in (0, 1)}

    @staticmethod
    def _pause_at(boundary: int):
        calls = itertools.count(1)
        return lambda: next(calls) == boundary

    def _snapshot_round_trip(self, checkpoint) -> ReplayCheckpoint:
        token = json.dumps(JobSnapshot("cluster", checkpoint=checkpoint).to_dict())
        return JobSnapshot.from_dict(json.loads(token)).checkpoint

    def _paused_checkpoint(self, traces, boundary: int) -> ReplayCheckpoint:
        vectorize.clear()
        with pytest.raises(ReplayPaused) as paused:
            ClusterReplayer(self.CONFIG).replay(traces, pause_check=self._pause_at(boundary))
        return self._snapshot_round_trip(paused.value.checkpoint)

    def test_resume_at_every_boundary_is_byte_identical(self, fleet_traces):
        reference = ClusterReplayer(self.CONFIG).replay(fleet_traces).to_dict()
        rank_of = {
            dataclass_replace(self.CONFIG, rank=rank).digest(): rank for rank in range(WORLD)
        }
        paused_at = set()
        for boundary in range(1, self.BOUNDARY_CALLS + 1):
            vectorize.clear()
            try:
                report = ClusterReplayer(self.CONFIG).replay(
                    fleet_traces, pause_check=self._pause_at(boundary)
                )
            except ReplayPaused as paused:
                checkpoint = self._snapshot_round_trip(paused.checkpoint)
                paused_at.add((
                    rank_of[checkpoint.config_digest],
                    checkpoint.completed_warmup,
                    checkpoint.completed_iterations,
                ))
                # Resume cold, as a fresh process would.
                vectorize.clear()
                report = ClusterReplayer(self.CONFIG).replay(
                    fleet_traces, resume_from=checkpoint
                )
            assert report.to_dict() == reference, boundary
        assert paused_at == self.PAUSABLE

    def test_tampered_fingerprint_fails_the_fleet(self, fleet_traces):
        checkpoint = self._paused_checkpoint(fleet_traces, 5)
        checkpoint.clock_fingerprint[1] += 1  # the next ET node id
        with pytest.raises(CheckpointError, match="clock fingerprint"):
            ClusterReplayer(self.CONFIG).replay(fleet_traces, resume_from=checkpoint)

    @pytest.mark.parametrize("source", ["another fleet", "another config"])
    def test_foreign_checkpoint_is_refused_before_any_rank_runs(self, fleet_traces, source):
        if source == "another fleet":
            other = DistributedRunner(
                lambda rank, world: make_small_rm(rank=rank, world_size=world), world_size=2
            ).run()
            checkpoint = self._paused_checkpoint([c.execution_trace for c in other], 1)
        else:
            checkpoint = self._paused_checkpoint(fleet_traces, 1)
            checkpoint.config_digest = dataclass_replace(self.CONFIG, iterations=3).digest()
        polled = []
        with pytest.raises(CheckpointError, match="matches no rank"):
            ClusterReplayer(self.CONFIG).replay(
                fleet_traces, pause_check=lambda: polled.append(1), resume_from=checkpoint
            )
        assert polled == []


# ----------------------------------------------------------------------
# bench harness
# ----------------------------------------------------------------------
class TestCompareDistributed:
    def test_table5_style_comparison(self):
        comparison = compare_distributed(
            lambda rank, world: make_small_rm(rank=rank, world_size=world),
            world_size=WORLD,
            device="A100",
        )
        assert comparison.world_size == WORLD
        assert comparison.ranks_simulated == WORLD
        assert comparison.report.unmatched_collectives == 0
        for key, error in comparison.replay_error.items():
            assert error < 0.15, key


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestReplayDistCli:
    def test_replay_dist_table_output(self, fleet_captures, tmp_path, capsys):
        DistributedRunner.save_captures(fleet_captures, tmp_path)
        exit_code = cli_main(["replay-dist", str(tmp_path), "--device", "A100"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "critical path" in out
        assert "4 replica(s)" in out

    def test_replay_dist_json_output(self, fleet_captures, tmp_path, capsys):
        DistributedRunner.save_captures(fleet_captures, tmp_path)
        exit_code = cli_main(["replay-dist", str(tmp_path), "--json", "-n", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["num_replicas"] == WORLD
        assert payload["unmatched_collectives"] == 0
        assert len(payload["ranks"]) == WORLD

    def test_replay_dist_empty_directory_fails_cleanly(self, tmp_path, capsys):
        exit_code = cli_main(["replay-dist", str(tmp_path)])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err

    def test_version_subcommand(self, capsys):
        from repro.version import __version__

        assert cli_main(["version"]) == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"
