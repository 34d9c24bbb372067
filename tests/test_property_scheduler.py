"""Property-based tests pinning the event-driven cluster scheduler.

With the legacy threaded engine retired, this suite *is* the scheduler's
contract.  The defining guarantees, held under hypothesis-generated
adversity:

* **Schedule independence** — the report is a function of the traces and
  the config, *not* of the order the scheduler happens to advance runnable
  cursors in.  ``ClusterReplayer.scheduler_pick`` exists precisely so this
  suite can inject arbitrary (seeded) pick orders and demand byte-identical
  reports.
* **Virtual-time monotonicity** — no rank's clock ever runs backwards, no
  matter how often its cursor is parked on a collective and resumed.
* **Determinism** — the same fleet + config replayed twice is
  byte-identical, including under randomized straggler/comm-delay configs.

It also absorbs the scheduler-adjacent regression pins that used to live in
the (now deleted) differential-equivalence suite: the hierarchical topology
model, ``ProfileHook`` re-anchoring and on-CPU stage spans under the
single-threaded event loop, and the ``replay-dist`` CLI flag surface.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.api as api
from repro.bench.harness import capture_workload
from repro.cluster import ClusterReplayer
from repro.core import vectorize
from repro.core.pipeline import ReplayHook
from repro.core.replayer import ReplayConfig
from repro.hardware.network import (
    CollectiveCostModel,
    HierarchicalTopology,
    InterconnectSpec,
    TopologyTier,
    topology_from_name,
)
from repro.service import serialize
from repro.service.cli import main as cli_main
from repro.telemetry import ProfileHook
from repro.workloads.ddp import DistributedRunner
from tests.conftest import make_small_rm

_FLEET = None


def _ddp_traces(world_size: int):
    runner = DistributedRunner(
        lambda rank, world: make_small_rm(rank=rank, world_size=world),
        world_size=world_size,
    )
    return [capture.execution_trace for capture in runner.run()]


def _fleet():
    """A tiny 2-rank DDP-RM fleet, built once for the whole module (small on
    purpose: hypothesis replays it dozens of times)."""
    global _FLEET
    if _FLEET is None:
        _FLEET = _ddp_traces(2)
    return _FLEET


@pytest.fixture(scope="module")
def ddp_fleet():
    """Lazily-built, module-cached DDP-RM trace fleets keyed by world size."""
    cache = {2: _fleet()}

    def get(world_size: int):
        if world_size not in cache:
            cache[world_size] = _ddp_traces(world_size)
        return cache[world_size]

    return get


def _digest(report) -> str:
    """Canonical report digest: equality down to the last serialised byte."""
    return hashlib.sha256(
        json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _replay(config: ReplayConfig = None, pick=None, watchers=None):
    # Every co-replay learns its programs cold, whatever ran before it.
    vectorize.clear()
    replayer = ClusterReplayer(
        config if config is not None else ReplayConfig(device="A100", iterations=1),
        profile_hook_factory=(lambda rank: watchers[rank]) if watchers else None,
    )
    if pick is not None:
        replayer.scheduler_pick = pick
    return replayer.replay(_fleet())


class _ClockWatcher(ReplayHook):
    """Records the rank-local virtual clock at every replayed op."""

    def __init__(self) -> None:
        self.samples = []

    def on_op_replayed(self, context, entry, output) -> None:
        runtime = context.runtime
        if runtime is not None:
            self.samples.append(max(runtime.cpu_clocks().values()))

    def report(self, **kwargs):
        # The engine asks every factory-attached hook for a profile; a
        # watcher has none to give.
        return None


class TestScheduleIndependence:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_report_independent_of_pick_order(self, seed):
        baseline = _digest(_replay())  # FIFO pick order
        rng = random.Random(seed)
        shuffled = _replay(pick=lambda ready, step: rng.randrange(len(ready)))
        assert _digest(shuffled) == baseline


class TestVirtualTimeMonotonicity:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_no_rank_clock_runs_backwards(self, seed):
        rng = random.Random(seed)
        watchers = {0: _ClockWatcher(), 1: _ClockWatcher()}
        _replay(pick=lambda ready, step: rng.randrange(len(ready)), watchers=watchers)
        for rank, watcher in watchers.items():
            assert watcher.samples, f"rank {rank} observed no ops"
            for earlier, later in zip(watcher.samples, watcher.samples[1:]):
                assert later >= earlier, f"rank {rank} clock went backwards"


class TestConfigDeterminism:
    @given(
        straggler=st.sampled_from([None, "V100", "NewPlatform"]),
        delay_scale=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
        extra_us=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_randomized_configs_replay_identically(self, straggler, delay_scale, extra_us, seed):
        config = ReplayConfig(
            device="A100",
            iterations=1,
            comm_delay_scale=delay_scale,
            comm_extra_delay_us=extra_us,
        )
        overrides = {0: {"device": straggler}} if straggler else None

        def run(pick=None):
            replayer = ClusterReplayer(config)
            if pick is not None:
                replayer.scheduler_pick = pick
            return replayer.replay(_fleet(), rank_overrides=overrides)

        rng = random.Random(seed)
        adversarial = run(pick=lambda ready, step: rng.randrange(len(ready)))
        fifo = run()
        assert _digest(adversarial) == _digest(fifo)


# ----------------------------------------------------------------------
# Scheduler contract pins (absorbed from the retired equivalence suite)
# ----------------------------------------------------------------------
class TestSchedulerContract:
    @pytest.mark.parametrize("world_size", [1, 4])
    def test_deterministic_across_runs(self, ddp_fleet, world_size):
        traces = ddp_fleet(world_size)
        replay = lambda: ClusterReplayer(ReplayConfig(device="A100")).replay(traces)
        assert _digest(replay()) == _digest(replay())

    def test_single_replica_failure_contract(self, ddp_fleet):
        from repro.cluster import ClusterReplayError

        with pytest.raises(ClusterReplayError, match="rank 0"):
            ClusterReplayer(ReplayConfig(device="NoSuchDevice")).replay([ddp_fleet(1)[0]])

    def test_memory_tracking_toggle(self, ddp_fleet):
        traces = ddp_fleet(2)
        on = ClusterReplayer(ReplayConfig(device="A100"), track_memory=True).replay(traces)
        off = ClusterReplayer(ReplayConfig(device="A100"), track_memory=False).replay(traces)
        assert on.has_memory is True
        assert off.has_memory is False

    def test_world_scaling_override(self, ddp_fleet):
        """Re-pricing a small fleet at a bigger world (the scale-up what-if)
        is deterministic — this is the path the 1024-rank sweep exercises."""
        traces = ddp_fleet(2)
        config = ReplayConfig(device="A100", world_size=64)
        first = ClusterReplayer(config).replay(traces)
        second = ClusterReplayer(config).replay(traces)
        assert first.world_size == second.world_size == 64
        assert first.to_dict() == second.to_dict()


# ----------------------------------------------------------------------
# Hierarchical topology model
# ----------------------------------------------------------------------
class TestHierarchicalTopology:
    def test_flat_preset_is_no_topology(self):
        assert topology_from_name(None) is None
        assert topology_from_name("flat") is None

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            topology_from_name("torus")

    def test_presets_resolve_to_increasing_spans(self):
        for name in ("nvlink-island", "rail-spine"):
            topology = topology_from_name(name, InterconnectSpec())
            spans = [tier.span for tier in topology.tiers]
            assert spans == sorted(spans)
            assert len(set(spans)) == len(spans)

    def test_spanned_tiers_grow_with_world_size(self):
        topology = topology_from_name("rail-spine", InterconnectSpec())
        assert len(topology.spanned(2)) == 1
        assert len(topology.spanned(64)) == 2
        assert len(topology.spanned(100_000)) == 3

    def test_bottleneck_is_min_over_spanned_tiers(self):
        topology = HierarchicalTopology(
            name="test",
            tiers=(
                TopologyTier("fast", 8, 600.0, 2.0),
                TopologyTier("slow", 1 << 20, 25.0, 10.0),
            ),
        )
        assert topology.bottleneck_bw_gbps(4) == 600.0
        assert topology.bottleneck_bw_gbps(512) == 25.0
        # Latency accumulates over every spanned tier.
        assert topology.latency_us(512) > topology.latency_us(4)

    def test_no_topology_keeps_flat_costs_byte_identical(self):
        spec = InterconnectSpec()
        flat = CollectiveCostModel(spec)
        explicit = CollectiveCostModel(spec, topology=None)
        for world in (2, 8, 64, 1024):
            assert flat.collective_us("all_reduce", 1 << 22, world) == explicit.collective_us(
                "all_reduce", 1 << 22, world
            )

    def test_spine_crossing_costs_more_than_flat(self):
        spec = InterconnectSpec()
        flat = CollectiveCostModel(spec)
        spine = CollectiveCostModel(spec, topology=topology_from_name("rail-spine", spec))
        world = 1024  # crosses the (slower, higher-latency) spine tier
        assert spine.collective_us("all_reduce", 1 << 22, world) > flat.collective_us(
            "all_reduce", 1 << 22, world
        )

    def test_flat_topology_report_matches_no_topology(self, ddp_fleet):
        traces = ddp_fleet(2)
        base = api.replay_cluster(traces).on("A100").run()
        flagged = api.replay_cluster(traces).on("A100").topology("flat").run()
        assert base.to_dict() == flagged.to_dict()

    def test_topology_shifts_fleet_costs_deterministically(self, ddp_fleet):
        traces = ddp_fleet(2)
        session = lambda: api.replay_cluster(traces).on("A100").world(1024)
        flat = session().run()
        spine = session().topology("rail-spine").run()
        assert spine.critical_path_us >= flat.critical_path_us
        # Topology is part of the replay config, so it prices reproducibly.
        again = session().topology("rail-spine").run()
        assert spine.to_dict() == again.to_dict()

    def test_topology_participates_in_config_digest(self):
        base = ReplayConfig(device="A100")
        spine = ReplayConfig(device="A100", topology="rail-spine")
        assert base.digest() != spine.digest()
        assert ReplayConfig.from_dict(spine.to_dict()).digest() == spine.digest()


# ----------------------------------------------------------------------
# ProfileHook attribution under the single-threaded event loop
# ----------------------------------------------------------------------
class TestProfileAttribution:
    @staticmethod
    def _hook_fixture():
        ticks = [0.0]

        def clock() -> float:
            return ticks[0]

        hook = ProfileHook(clock=clock)
        context = SimpleNamespace(measuring=True)
        entry = SimpleNamespace(node=SimpleNamespace(name="aten::mm"))
        return ticks, hook, context, entry

    def test_on_resume_reanchors_the_per_op_mark(self):
        """Regression: ProfileHook assumed one thread per rank, so the first
        op after an event-scheduler context switch was billed for the wall
        time spent replaying *other* ranks.  ``on_resume`` re-anchors."""
        ticks, hook, context, entry = self._hook_fixture()
        hook.on_stage_start(context, SimpleNamespace(name="execute"))
        ticks[0] = 1.0
        hook.on_op_replayed(context, entry, None)  # delta = 1.0
        ticks[0] = 9.0  # the scheduler runs other ranks for 8 ticks...
        hook.on_resume(context)  # ...then resumes this rank
        ticks[0] = 10.0
        hook.on_op_replayed(context, entry, None)  # delta must be 1.0, not 9.0
        (op,) = hook.report().ops
        assert op.count == 2
        assert op.max_us == pytest.approx(1e6)  # 1.0 s in us, no foreign time
        assert op.total_ms == pytest.approx(2e3)

    def test_without_resume_foreign_time_would_be_billed(self):
        """The inverse scenario documents why the hook needs on_resume."""
        ticks, hook, context, entry = self._hook_fixture()
        hook.on_stage_start(context, SimpleNamespace(name="execute"))
        ticks[0] = 1.0
        hook.on_op_replayed(context, entry, None)
        ticks[0] = 10.0  # no on_resume: the 9 foreign ticks leak in
        hook.on_op_replayed(context, entry, None)
        (op,) = hook.report().ops
        assert op.max_us == pytest.approx(9e6)

    def test_stage_spans_count_on_cpu_time_only(self):
        """Regression: a rank's execute span stayed open while it was
        parked, billing it for every other rank's work — on 8 ranks the
        per-rank execute times summed to ~5x the fleet wall.  Spans now
        close on ``on_park``, so one thread's on-CPU segments cannot add
        up to more than the wall they ran in."""
        fleet = DistributedRunner(
            lambda rank, world: make_small_rm(rank=rank, world_size=world), world_size=8
        ).run()
        session = api.replay_cluster(fleet).on("A100").with_profiling()
        start = time.perf_counter()
        report = session.run()
        fleet_wall_s = time.perf_counter() - start
        profiles = report.profile_reports
        assert sorted(profiles) == list(range(8))
        assert all(profile.stage_wall_s["execute"] > 0.0 for profile in profiles.values())
        assert sum(p.stage_wall_s["execute"] for p in profiles.values()) <= fleet_wall_s

    def test_event_engine_profiles_each_rank_separately(self, ddp_fleet):
        traces = ddp_fleet(2)
        report = api.replay_cluster(traces).on("A100").with_profiling().run()
        profiles = report.profile_reports
        assert set(profiles) == {0, 1}
        for rank, profile in profiles.items():
            assert profile.replayed_ops > 0


# ----------------------------------------------------------------------
# replay-dist CLI flags
# ----------------------------------------------------------------------
class TestReplayDistCliFlags:
    @pytest.fixture(scope="class")
    def fleet_dir(self, tmp_path_factory):
        runner = DistributedRunner(
            lambda rank, world: make_small_rm(rank=rank, world_size=world), world_size=2
        )
        directory = tmp_path_factory.mktemp("fleet")
        DistributedRunner.save_captures(runner.run(), directory)
        return directory

    def test_world_size_alias(self, fleet_dir, capsys):
        exit_code = cli_main(
            ["replay-dist", str(fleet_dir), "--world-size", "16", "--json", "-n", "1"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["world_size"] == 16

    def test_topology_flag_reaches_the_cost_model(self, fleet_dir, capsys):
        args = ["replay-dist", str(fleet_dir), "--world-size", "1024", "--json", "-n", "1"]
        assert cli_main(args) == 0
        flat = json.loads(capsys.readouterr().out)
        assert cli_main(args + ["--topology", "rail-spine"]) == 0
        spine = json.loads(capsys.readouterr().out)
        assert spine["critical_path_us"] >= flat["critical_path_us"]

    def test_unknown_topology_is_an_argparse_error(self, fleet_dir, capsys):
        with pytest.raises(SystemExit):
            cli_main(["replay-dist", str(fleet_dir), "--topology", "torus"])

    def test_retired_engine_flag_is_rejected(self, fleet_dir, capsys):
        """``--engine`` shipped for exactly one release alongside the threaded
        oracle; both are gone."""
        with pytest.raises(SystemExit):
            cli_main(["replay-dist", str(fleet_dir), "--engine", "threaded"])

    def test_json_round_trips_through_serialize(self, fleet_dir, capsys):
        assert (
            cli_main(
                ["replay-dist", str(fleet_dir), "--topology", "nvlink-island", "--json", "-n", "1"]
            )
            == 0
        )
        cli_payload = json.loads(capsys.readouterr().out)
        report = (
            api.replay_cluster(fleet_dir)
            .on("A100")
            .iterations(1)
            .topology("nvlink-island")
            .run()
        )
        assert cli_payload == json.loads(serialize.dumps(report))
