"""Byte-identical equivalence of the vectorized and scalar execute paths.

The vectorized executor (:mod:`repro.core.vectorize`) is an execution
*strategy*: it may only change how fast the replay engine runs, never what
it measures.  These tests pin that contract at full strength — not "close
enough" float comparisons but exact equality of every observable:

* the cached summary (``summarize().to_dict()``), float-for-float,
* every kernel launch (timestamps, durations, stream placement,
  correlation ids) in order,
* every virtual profiler event (``profile=True`` replays),
* and the service layer's cache identity: ``vectorized`` is excluded from
  ``ReplayConfig.to_dict()``/``digest()``, so both modes share one cache
  entry.

A hypothesis property sweep varies the workload shapes (PARAM-linear, RM,
DDP-RM) so the equivalence holds across program structures — repeated op
groups, embedding lookups, and scalar-forever comms ops alike.  The
fleet-shared programs get their own pins: an 8-rank co-replay, ranks in
other program environments, and a program that diverges across ranks.
So does the process's one program table: warm co-replays and
single-rank replays, candidates settled or contradicted by a later replay,
an operator override after warming, a power sweep and concurrent replays.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.api as api
from repro.bench.throughput import synthesize_fleet
from repro.cluster import ClusterReplayer
from repro.core import vectorize
from repro.core.pipeline import (
    ReplayContext,
    ReplayHook,
    ReplayPaused,
    ReplayPipeline,
    run_replay,
)
from repro.core.replayer import ReplayConfig
from repro.torchsim.ops.registry import OperatorDef, OperatorRegistry, global_registry
from repro.torchsim.runtime import Runtime
from repro.workloads.ddp import DistributedRunner
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from repro.workloads.rm import RMConfig, RMWorkload

from tests.conftest import make_small_rm


def _launch_key(launch):
    return (
        launch.op_name,
        launch.op_node_id,
        launch.correlation_id,
        launch.stream_id,
        launch.category,
        launch.desc.name,
        launch.launch_ts,
        launch.duration,
        launch.start,
        launch.end,
    )


def assert_equivalent(trace, profiler_trace=None, iterations=2, warmup=1, profile=True):
    """Replay both ways and assert every observable is byte-identical."""

    def run(vectorized: bool):
        config = ReplayConfig(
            iterations=iterations,
            warmup_iterations=warmup,
            profile=profile,
            vectorized=vectorized,
        )
        return api.replay(trace, profiler_trace=profiler_trace, config=config).run()

    scalar = run(False)
    # A cold table: the vectorized run captures and verifies every program
    # itself, as a replay of content the process has not seen does.
    vectorize.clear()
    fast = run(True)
    assert _observables(fast) == _observables(scalar)
    return scalar, fast


def _observables(result):
    """Everything a replay measures: the scalar measurements the cache
    stores (exact), the full kernel schedule launch for launch, and the
    virtual profiler trace event for event (when it recorded one)."""
    events = None
    if result.profiler_trace is not None:
        events = [event.to_dict() for event in result.profiler_trace.events]
    return (
        result.summarize().to_dict(),
        result.iteration_times_us,
        [_launch_key(launch) for launch in result.kernel_launches],
        events,
    )


# ----------------------------------------------------------------------
# Cache identity
# ----------------------------------------------------------------------
class TestCacheIdentity:
    def test_vectorized_is_excluded_from_canonical_form(self):
        assert "vectorized" not in ReplayConfig().to_dict()
        assert "vectorized" not in ReplayConfig(vectorized=False).to_dict()

    def test_both_modes_share_one_cache_digest(self):
        fast = ReplayConfig(device="V100", iterations=3, vectorized=True)
        scalar = ReplayConfig(device="V100", iterations=3, vectorized=False)
        assert fast.digest() == scalar.digest()

    def test_from_dict_still_accepts_vectorized(self):
        config = ReplayConfig.from_dict({"vectorized": False})
        assert config.vectorized is False


# ----------------------------------------------------------------------
# Fixed-shape equivalence (fast, always run in full)
# ----------------------------------------------------------------------
class TestEquivalenceFixedShapes:
    def test_param_linear(self, small_linear_capture):
        assert_equivalent(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
        )

    def test_rm(self, small_rm):
        capture = api.capture(small_rm)
        assert_equivalent(capture.execution_trace, capture.profiler_trace)

    def test_ddp_rm_single_rank_replay(self):
        runner = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        )
        capture = runner.run_rank(0)
        scalar, fast = assert_equivalent(
            capture.execution_trace, capture.profiler_trace
        )
        # Comms ops are scalar-forever in the vectorized executor but must
        # still replay (not skip): both paths replay the same op count.
        assert fast.replayed_ops == scalar.replayed_ops > 0

    def test_profile_disabled_replay_is_also_identical(self, small_linear_capture):
        assert_equivalent(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            profile=False,
        )

    def test_single_measured_iteration_without_warmup(self, small_linear_capture):
        # No warm-up means the vectorized executor captures/verifies its
        # programs *inside* the measured region — still byte-identical.
        assert_equivalent(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            iterations=1,
            warmup=0,
        )

    def test_cluster_replay_is_identical_either_way(self):
        runner = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        )
        captures = runner.run()

        def run(vectorized: bool):
            return (
                api.replay_cluster(captures)
                .configure(vectorized=vectorized)
                .iterations(2, warmup=1)
                .run()
            )

        scalar, fast = run(False), run(True)
        assert fast.to_dict() == scalar.to_dict()


# ----------------------------------------------------------------------
# Property sweep over workload shapes
# ----------------------------------------------------------------------
class TestEquivalenceProperties:
    @settings(max_examples=5, deadline=None)
    @given(
        num_layers=st.integers(min_value=1, max_value=3),
        hidden_size=st.sampled_from([8, 16, 32]),
        batch_size=st.sampled_from([4, 16]),
    )
    def test_param_linear_shapes(self, num_layers, hidden_size, batch_size):
        workload = ParamLinearWorkload(
            ParamLinearConfig(
                batch_size=batch_size,
                num_layers=num_layers,
                hidden_size=hidden_size,
                input_size=hidden_size,
            )
        )
        capture = api.capture(workload)
        assert_equivalent(capture.execution_trace, capture.profiler_trace)

    @settings(max_examples=3, deadline=None)
    @given(
        num_tables=st.integers(min_value=2, max_value=4),
        embedding_dim=st.sampled_from([8, 16]),
        pooling_factor=st.integers(min_value=1, max_value=4),
    )
    def test_rm_shapes(self, num_tables, embedding_dim, pooling_factor):
        workload = RMWorkload(
            RMConfig(
                batch_size=16,
                num_tables=num_tables,
                rows_per_table=500,
                embedding_dim=embedding_dim,
                pooling_factor=pooling_factor,
                bottom_mlp=(16, 8),
                top_mlp=(32, 16),
            )
        )
        capture = api.capture(workload)
        assert_equivalent(capture.execution_trace, capture.profiler_trace)

    @settings(max_examples=2, deadline=None)
    @given(world_size=st.integers(min_value=2, max_value=3))
    def test_ddp_rm_shapes(self, world_size):
        runner = DistributedRunner(
            lambda rank, ws: make_small_rm(rank, ws), world_size=world_size
        )
        capture = runner.run_rank(0)
        assert_equivalent(capture.execution_trace, capture.profiler_trace)


def _with_override(name, implementation, body):
    """Run ``body()`` with ``name`` overridden by ``implementation(original,
    ctx, *args, **kwargs)``, an op outside the built-in modules, as a user
    op registered through ``ReplaySupport.register_custom_op`` would be."""
    original = global_registry.get(name)
    global_registry.register(
        OperatorDef(
            name=name,
            schema_str=original.schema_str,
            category=original.category,
            fn=lambda ctx, *args, **kwargs: implementation(original, ctx, *args, **kwargs),
            library=original.library,
        ),
        overwrite=True,
    )
    try:
        return body()
    finally:
        global_registry.register(original, overwrite=True)


# ----------------------------------------------------------------------
# Fleet-shared programs
# ----------------------------------------------------------------------
class _ExecutorStats(ReplayHook):
    """Records one rank's executor counters and the process's program
    table for its environment when its execute stage ends (a
    ``profile_hook_factory`` hook with no report)."""

    def __init__(self, rank, sink):
        self.rank = rank
        self.sink = sink

    def on_stage_end(self, context, stage):
        executor = context.extras.get(vectorize.EXTRAS_KEY)
        if stage.name == "execute" and executor is not None:
            self.sink[self.rank] = (dict(executor.stats), executor._programs)

    def report(self, **_):
        return None


def _replay_fleet(fleet, vectorized=True, overrides=None, cold=False):
    """Co-replay at ``iterations=1, warmup=0``; returns the report's
    canonical JSON and ``rank -> (executor stats, program table)``.
    ``cold`` first clears the process's program table, so the co-replay
    learns every program itself."""
    if cold:
        vectorize.clear()
    sink = {}
    replayer = ClusterReplayer(
        ReplayConfig(
            iterations=1, warmup_iterations=0, world_size=8, vectorized=vectorized
        ),
        profile_hook_factory=lambda rank: _ExecutorStats(rank, sink),
    )
    report = replayer.replay(fleet, rank_overrides=overrides)
    return json.dumps(report.to_dict(), sort_keys=True), sink


def _total(stats, key, ranks=None):
    return sum(s[key] for rank, (s, _) in stats.items() if ranks is None or rank in ranks)


class TestFleetSharedPrograms:
    """One co-replay shares one program table per environment: on a cold
    table each signature is captured and verified once for the
    whole fleet, and the report stays byte-identical to the scalar loop —
    also for ranks in another program environment and for ops whose effect
    may depend on the rank."""

    @staticmethod
    def _signatures(fleet):
        """Distinct programs of one rank's trace, learned with no peers."""
        _, stats = _replay_fleet(fleet[:1], cold=True)
        return stats[0][0]["programs_captured"]

    def test_eight_rank_fleet_is_identical_either_way(self):
        fleet = synthesize_fleet(8)
        assert _replay_fleet(fleet, vectorized=True)[0] == _replay_fleet(fleet, vectorized=False)[0]

    def test_each_program_is_learned_once_for_the_fleet(self):
        fleet = synthesize_fleet(8)
        signatures = self._signatures(fleet)
        _, stats = _replay_fleet(fleet, cold=True)
        # Every rank learns into one table, and nothing died.
        assert len({id(programs) for _, programs in stats.values()}) == 1
        assert len(stats[0][1]) == signatures > 0
        assert _total(stats, "programs_captured") == signatures
        assert _total(stats, "programs_verified") == signatures
        assert _total(stats, "programs_dead") == 0
        # Only two occurrences per signature take the learning path fleet
        # wide (capture, verify); all other compute ops replay fast.
        comms = sum(
            1 for entry in fleet[0].operators() if entry.name.startswith("c10d::")
        ) * len(fleet)
        assert _total(stats, "scalar_ops") == 2 * signatures + comms
        assert _total(stats, "fast_ops") >= 300

    def test_other_environments_learn_their_own_programs(self):
        """A rank on another device learns into its own environment's
        table.  A power-capped rank does not: the clock is not part of the
        environment, so it shares the A100 table and prices the same
        programs at its own clock."""
        fleet = synthesize_fleet(8)
        signatures = self._signatures(fleet)
        overrides = {3: {"device": "V100"}, 5: {"power_limit_w": 250.0}}
        fast, stats = _replay_fleet(fleet, overrides=overrides, cold=True)
        assert fast == _replay_fleet(fleet, vectorized=False, overrides=overrides)[0]
        tables = {rank: id(programs) for rank, (_, programs) in stats.items()}
        assert len(set(tables.values())) == 2
        assert tables[5] == tables[0] != tables[3]
        # The lone V100 rank captures every program of its own environment;
        # the capped rank and its uncapped peers learn each program once.
        assert stats[3][0]["programs_captured"] == signatures
        shared = set(stats) - {3}
        assert _total(stats, "programs_captured", shared) == signatures
        assert _total(stats, "programs_dead") == 0
        assert stats[5][0]["fast_ops"] > 0

    @staticmethod
    def _with_straggler(name, fleet_replays):
        """Run ``fleet_replays()`` with ``name`` overridden by a user op
        that models a straggler: it adds CPU time on rank 3 only."""

        def straggler(original, ctx, *args, **kwargs):
            result = original.fn(ctx, *args, **kwargs)
            if ctx.runtime.rank == 3:
                ctx.runtime.advance_cpu(7.0)
            return result

        return _with_override(name, straggler, fleet_replays)

    def test_rank_skewed_top_level_op_is_learned_per_rank(self):
        """Each rank replays ``aten::relu_`` several times with one
        signature before its first collective, so a shared program would be
        captured and verified on rank 0 alone and replayed on rank 3 with
        rank 0's timing.  A non-built-in op keys on the rank instead."""
        name = "aten::relu_"
        fleet = synthesize_fleet(8)
        alone = _replay_fleet(fleet[:1], cold=True)[1][0][1]
        relus = sum(1 for p in alone.values() if p.op_name == name)
        (fast, stats), (scalar, _) = self._with_straggler(
            name,
            lambda: (_replay_fleet(fleet, cold=True), _replay_fleet(fleet, vectorized=False)),
        )
        assert fast == scalar
        assert _total(stats, "programs_dead") == 0
        programs = stats[0][1]
        skewed = [p for p in programs.values() if p.op_name == name]
        # One verified program per relu signature per rank ...
        assert relus > 0 and len(skewed) == 8 * relus
        assert {p.signature[1] for p in skewed} == set(range(8))
        assert all(p.state == vectorize._VERIFIED for p in skewed)
        # ... while every other op is still learned once for the fleet.
        assert len(programs) - len(skewed) == len(alone) - relus

    def test_builtin_dispatching_a_rank_skewed_op_dies_fleet_wide(self):
        """``aten::linear`` is built in but dispatches ``aten::addmm``;
        with ``addmm`` overridden its effect may depend on the rank, so
        the linear programs end dead for the whole fleet (bound to the
        scalar path on every rank) and the report equals scalar."""
        fleet = synthesize_fleet(8)
        linears = sum(
            1
            for p in _replay_fleet(fleet[:1], cold=True)[1][0][1].values()
            if p.op_name == "aten::linear"
        )
        (fast, stats), (scalar, _) = self._with_straggler(
            "aten::addmm",
            lambda: (_replay_fleet(fleet), _replay_fleet(fleet, vectorized=False)),
        )
        assert fast == scalar
        programs = stats[0][1]
        dead = [p for p in programs.values() if p.state == vectorize._DEAD]
        assert linears > 0
        assert len(dead) == linears == _total(stats, "programs_dead")
        assert {p.op_name for p in dead} == {"aten::linear"}

    def test_override_after_warming_the_store_still_equals_scalar(self):
        """Overriding ``aten::addmm`` in place moves the registry to a new
        generation, so a warm table's verified ``aten::linear`` programs
        are not served: the fleet learns them again, and they die."""
        fleet = synthesize_fleet(8)
        _replay_fleet(fleet, cold=True)
        _, warm = _replay_fleet(fleet)
        assert _total(warm, "programs_captured") == 0
        (fast, stats), (scalar, _) = self._with_straggler(
            "aten::addmm",
            lambda: (_replay_fleet(fleet), _replay_fleet(fleet, vectorized=False)),
        )
        assert fast == scalar
        assert _total(stats, "programs_dead") > 0


# ----------------------------------------------------------------------
# The process's program table
# ----------------------------------------------------------------------
def _comms(trace):
    return sum(1 for entry in trace.operators() if entry.name.startswith("c10d::"))


#: Extra CPU time the user op in ``test_a_contradicted_candidate_dies``
#: reads at call time.
_LOSS_EXTRA_US = 0.0


def _single_replay(
    trace, profiler_trace=None, vectorized=True, iterations=1, warmup=0, power_limit_w=None
):
    """One profiled single-rank replay; returns its observables and its
    executor's counters (``None`` for the scalar loop)."""
    sink = []

    class Stats(ReplayHook):
        def on_stage_end(self, context, stage):
            executor = context.extras.get(vectorize.EXTRAS_KEY)
            if stage.name == "execute" and executor is not None:
                sink.append(dict(executor.stats))

    result = (
        api.replay(trace, profiler_trace=profiler_trace)
        .configure(vectorized=vectorized, profile=True, power_limit_w=power_limit_w)
        .iterations(iterations, warmup=warmup)
        .hook(Stats())
        .run()
    )
    return _observables(result), (sink[0] if sink else None)


class TestProcessStore:
    """Every replay starts from the programs earlier replays in the process
    captured: a warm replay captures nothing and replays every compute op on
    the fast path, and its report stays byte-identical to the cold one and
    to the scalar loop."""

    def test_warm_co_replays_capture_nothing(self):
        fleet = synthesize_fleet(8)
        first, cold = _replay_fleet(fleet, cold=True)
        assert _total(cold, "programs_captured") > 0
        scalar = _replay_fleet(fleet, vectorized=False)[0]
        comms = _comms(fleet[0]) * len(fleet)
        for _ in range(2):
            report, stats = _replay_fleet(fleet)
            assert _total(stats, "programs_captured") == 0
            assert _total(stats, "programs_verified") == 0
            assert _total(stats, "scalar_ops") == comms
            assert report == first == scalar

    def test_warm_single_rank_replay_captures_nothing(self):
        runner = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        )
        capture = runner.run_rank(0)
        trace, profiler_trace = capture.execution_trace, capture.profiler_trace

        vectorize.clear()
        first, cold = _single_replay(trace, profiler_trace, iterations=2, warmup=1)
        assert cold["programs_captured"] > 0
        scalar, _ = _single_replay(trace, profiler_trace, False, iterations=2, warmup=1)
        comms = _comms(trace) * 3
        for _ in range(2):
            warm, stats = _single_replay(trace, profiler_trace, iterations=2, warmup=1)
            assert stats["programs_captured"] == stats["programs_verified"] == 0
            assert stats["scalar_ops"] == comms > 0
            assert warm == first == scalar

    @pytest.mark.parametrize("workload", ["small_param_linear", "small_rm"])
    def test_one_iteration_replays_settle_across_replays(self, workload, request):
        """At ``iterations=1`` (the default) a signature that occurs once
        per replay is captured by the first replay and verified by the
        second, so the third runs every compute op on the fast path."""
        capture = api.capture(request.getfixturevalue(workload))
        trace, profiler_trace = capture.execution_trace, capture.profiler_trace
        scalar, _ = _single_replay(trace, profiler_trace, vectorized=False)
        vectorize.clear()
        reports, stats = zip(*(_single_replay(trace, profiler_trace) for _ in range(3)))
        assert stats[0]["programs_captured"] > 0
        assert stats[1]["programs_captured"] == 0 < stats[1]["programs_verified"]
        assert stats[2]["programs_captured"] == stats[2]["programs_verified"] == 0
        assert stats[2]["scalar_ops"] == _comms(trace)
        assert stats[2]["fast_ops"] > 0
        assert list(reports) == [scalar] * 3

    def test_a_contradicted_candidate_dies(self, small_linear_capture, monkeypatch):
        """A user op whose cost reads a module-level value: the first
        replay captures its candidate, the value changes, and the next
        replay's capture contradicts the candidate, which dies there — that
        replay still equals the scalar loop, and so does every later one."""
        name = "aten::mse_loss"
        original = global_registry.get(name)

        def slower_loss(ctx, *args, **kwargs):
            result = original.fn(ctx, *args, **kwargs)
            ctx.runtime.advance_cpu(_LOSS_EXTRA_US)
            return result

        trace = small_linear_capture.execution_trace
        profiler_trace = small_linear_capture.profiler_trace
        global_registry.register(
            OperatorDef(
                name=name,
                schema_str=original.schema_str,
                category=original.category,
                fn=slower_loss,
                library=original.library,
            ),
            overwrite=True,
        )
        try:
            vectorize.clear()
            first, cold = _single_replay(trace, profiler_trace)
            assert first == _single_replay(trace, profiler_trace, vectorized=False)[0]
            assert cold["programs_dead"] == 0
            monkeypatch.setattr(sys.modules[__name__], "_LOSS_EXTRA_US", 5.0)
            scalar, _ = _single_replay(trace, profiler_trace, vectorized=False)
            assert scalar != first
            for expected_dead in (1, 0):
                report, stats = _single_replay(trace, profiler_trace)
                assert stats["programs_dead"] == expected_dead
                assert report == scalar
            environment = vectorize.program_environment(Runtime())
            dead = [
                program
                for program in vectorize.partition(environment).values()
                if program.op_name == name
            ]
            assert [program.state for program in dead] == [vectorize._DEAD]
        finally:
            global_registry.register(original, overwrite=True)

    def test_warm_resume_equals_uninterrupted(self, small_linear_capture, monkeypatch):
        """A replay paused and resumed in the process that already learned
        its programs (as a daemon resumes a job) captures nothing and still
        ends byte-identical to the uninterrupted replay."""
        trace = small_linear_capture.execution_trace
        config = ReplayConfig(iterations=3, warmup_iterations=2)
        reference = _observables(run_replay(trace, config=config))
        captures = []
        capture = vectorize.VectorizedExecutor._capture

        def counting_capture(*args, **kwargs):
            captures.append(args)
            return capture(*args, **kwargs)

        monkeypatch.setattr(vectorize.VectorizedExecutor, "_capture", counting_capture)
        for boundary in range(1, 5):
            calls = itertools.count(1)
            with pytest.raises(ReplayPaused) as paused:
                run_replay(
                    trace, config=config, pause_check=lambda: next(calls) == boundary
                )
            resumed = run_replay(trace, config=config, resume_from=paused.value.checkpoint)
            assert _observables(resumed) == reference, boundary
        assert captures == []

    def test_power_sweep_retains_a_bounded_number_of_environments(
        self, small_linear_capture
    ):
        """A power sweep stays in one environment; replays through more
        operator registries (each its own environment) than
        :data:`~repro.core.vectorize.MAX_ENVIRONMENTS` keep that many."""
        trace = small_linear_capture.execution_trace
        for cap in [200.0 + 10.0 * step for step in range(12)]:
            api.replay(trace).configure(power_limit_w=cap).iterations(2).run()
        assert len(vectorize._partitions) == 1
        vectorize.clear()
        for _ in range(vectorize.MAX_ENVIRONMENTS + 4):
            registry = OperatorRegistry()
            for op_def in global_registry:
                registry.register(op_def)
            context = ReplayContext(
                trace=trace, config=ReplayConfig(iterations=2), runtime=Runtime(registry=registry)
            )
            ReplayPipeline.default().run(context)
            assert context.extras[vectorize.EXTRAS_KEY].stats["fast_ops"] > 0
            assert len(vectorize._partitions) <= vectorize.MAX_ENVIRONMENTS
        assert len(vectorize._partitions) == vectorize.MAX_ENVIRONMENTS

    def test_concurrent_single_replays_on_a_cold_table_equal_scalar(self, small_rm):
        """Two threads replay one ``iterations=1`` trace at once: each may
        verify, kill or use the other's candidates mid-replay, and both
        reports equal the scalar loop's."""
        capture = api.capture(small_rm)
        trace, profiler_trace = capture.execution_trace, capture.profiler_trace
        scalar, _ = _single_replay(trace, profiler_trace, vectorized=False)
        threads = 2
        barrier = threading.Barrier(threads)
        reports, errors = [], []

        def replay():
            try:
                barrier.wait(timeout=60)
                reports.append(_single_replay(trace, profiler_trace)[0])
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        vectorize.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=replay) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert reports == [scalar] * threads

    def test_concurrent_co_replays_on_a_cold_store_equal_serial(self):
        """Co-replays of one fleet on several threads at once, as a
        daemon's workers run them: all learn into the one table, and every
        report equals the serial ones."""
        fleet = synthesize_fleet(8)
        scalar = _replay_fleet(fleet, vectorized=False)[0]
        serial = _replay_fleet(fleet, cold=True)[0]
        assert serial == scalar
        threads = 3
        barrier = threading.Barrier(threads)
        reports, errors = [], []

        def co_replay():
            try:
                barrier.wait(timeout=60)
                reports.append(_replay_fleet(fleet)[0])
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        vectorize.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=co_replay) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert reports == [serial] * threads
        # What the threads learned serves the next co-replay.
        report, stats = _replay_fleet(fleet)
        assert report == serial and _total(stats, "programs_captured") == 0


# ----------------------------------------------------------------------
# Clock-free programs: one table for every power cap
# ----------------------------------------------------------------------
#: Fig 8's power caps on the A100 (W); each gives its own clock scale.
_CAPS = (100.0, 150.0, 200.0, 250.0, 300.0, 350.0)


class TestClockFreePrograms:
    """A program stores no kernel durations and prices its kernels per
    clock, so a power sweep learns each program once: every cap's report
    stays byte-identical to the scalar loop at that cap."""

    def test_a_power_sweep_learns_at_its_first_two_caps_only(self, small_rm):
        capture = api.capture(small_rm)
        trace, profiler_trace = capture.execution_trace, capture.profiler_trace
        scalar = [
            _single_replay(trace, profiler_trace, vectorized=False, power_limit_w=cap)[0]
            for cap in _CAPS
        ]
        # The caps bend the kernel durations, so every report differs.
        assert len({json.dumps(report[0], sort_keys=True) for report in scalar}) == len(_CAPS)
        vectorize.clear()
        reports, stats = zip(
            *(_single_replay(trace, profiler_trace, power_limit_w=cap) for cap in _CAPS)
        )
        assert list(reports) == scalar
        # iterations=1: the first cap captures every signature and verifies
        # those that occur twice; the second verifies the rest.
        assert stats[0]["programs_captured"] > 0
        assert stats[1]["programs_captured"] == 0 < stats[1]["programs_verified"]
        (table,) = vectorize._partitions.values()
        signatures = len(table)
        assert signatures == stats[0]["programs_captured"]
        assert all(program.state == vectorize._VERIFIED for program in table.values())
        # Every later cap binds each compute node (some share a signature)
        # to a program the table held.
        nodes = stats[0]["fast_ops"] + stats[0]["scalar_ops"] - _comms(trace)
        assert nodes > signatures
        for later in stats[2:]:
            assert later["programs_captured"] == later["programs_verified"] == 0
            assert later["programs_dead"] == 0
            assert later["programs_reused"] == later["fast_ops"] == nodes
            assert later["scalar_ops"] == _comms(trace)
        # Each program keeps its kernels priced at every cap that bound it:
        # all but the first, where a signature that occurs once is only
        # captured.
        clocks = [Runtime(power_limit_w=cap).cost_model.clock_scale for cap in _CAPS]
        for program in table.values():
            assert set(clocks[1:]) <= set(program.priced) <= set(clocks)

    @staticmethod
    def _sweep(capture, caps):
        """At each cap, a vectorized and a scalar replay (``iterations=2``):
        ``[(report, stats, scalar report)]``, and the program table of the
        environment they ran in."""
        trace, profiler_trace = capture.execution_trace, capture.profiler_trace
        runs = []
        for cap in caps:
            report, stats = _single_replay(trace, profiler_trace, iterations=2, power_limit_w=cap)
            scalar, _ = _single_replay(trace, profiler_trace, False, 2, power_limit_w=cap)
            runs.append((report, stats, scalar))
        return runs, vectorize.partition(vectorize.program_environment(Runtime()))

    def test_a_program_dead_at_one_clock_is_dead_at_every_clock(self, small_linear_capture):
        """``aten::linear`` is built in but dispatches ``aten::addmm``;
        with ``addmm`` overridden its programs die at the first cap, and no
        later cap captures them again."""
        runs, table = _with_override(
            "aten::addmm",
            lambda original, ctx, *args, **kwargs: original.fn(ctx, *args, **kwargs),
            lambda: self._sweep(small_linear_capture, _CAPS[:3]),
        )
        assert all(report == scalar for report, _, scalar in runs)
        first = runs[0][1]
        assert first["programs_dead"] > 0
        for _, later, _ in runs[1:]:
            assert later["programs_dead"] == later["programs_captured"] == 0
        dead = [p for p in table.values() if p.state == vectorize._DEAD]
        assert len(dead) == first["programs_dead"]
        assert {p.op_name for p in dead} == {"aten::linear"}

    def test_an_op_off_the_cost_models_price_dies(self, small_linear_capture):
        """A kernel launched with its own duration cannot be priced per
        clock: its program dies, and the replay equals the scalar loop."""

        def fixed_duration(original, ctx, *args, **kwargs):
            result = original.fn(ctx, *args, **kwargs)
            ctx.launch(ctx.runtime.gpu.launches[-1].desc, duration_us=3.0)
            return result

        runs, _ = _with_override(
            "aten::mse_loss", fixed_duration, lambda: self._sweep(small_linear_capture, _CAPS[:2])
        )
        for report, stats, scalar in runs:
            assert report == scalar
            assert stats["programs_dead"] == 1

    def test_a_clock_reading_user_op_learns_a_program_per_cap(self, small_linear_capture):
        """A user op may read the clock, so it has the clock scale in its
        signature: each cap captures and verifies its own program, while
        the built-in ops' programs serve every cap."""
        name = "aten::mse_loss"

        def clocked_loss(original, ctx, *args, **kwargs):
            result = original.fn(ctx, *args, **kwargs)
            ctx.runtime.advance_cpu(10.0 / ctx.runtime.cost_model.clock_scale)
            return result

        runs, table = _with_override(
            name, clocked_loss, lambda: self._sweep(small_linear_capture, _CAPS[:3])
        )
        for report, stats, scalar in runs:
            assert report == scalar
            assert stats["programs_dead"] == 0
        for _, later, _ in runs[1:]:
            # Only the user op's program is new at a later cap.
            assert later["programs_captured"] == later["programs_verified"] == 1
        losses = [p for p in table.values() if p.op_name == name]
        clocks = [Runtime(power_limit_w=cap).cost_model.clock_scale for cap in _CAPS[:3]]
        assert sorted(p.signature[2] for p in losses) == sorted(clocks)
        assert all(p.state == vectorize._VERIFIED for p in losses)

    def test_warm_resume_at_a_new_cap_equals_uninterrupted(
        self, small_linear_capture, monkeypatch
    ):
        """A replay paused and resumed at a cap the process never replayed
        at, after a replay at another cap learned every program, captures
        nothing and ends byte-identical to the uninterrupted replay."""
        trace = small_linear_capture.execution_trace
        config = ReplayConfig(iterations=3, warmup_iterations=2, power_limit_w=_CAPS[1])
        reference = _observables(run_replay(trace, config=config))
        vectorize.clear()
        run_replay(trace, config=ReplayConfig(iterations=3, warmup_iterations=2))
        captures = []
        capture = vectorize.VectorizedExecutor._capture

        def counting_capture(*args, **kwargs):
            captures.append(args)
            return capture(*args, **kwargs)

        monkeypatch.setattr(vectorize.VectorizedExecutor, "_capture", counting_capture)
        for boundary in range(1, 5):
            calls = itertools.count(1)
            with pytest.raises(ReplayPaused) as paused:
                run_replay(
                    trace, config=config, pause_check=lambda: next(calls) == boundary
                )
            resumed = run_replay(trace, config=config, resume_from=paused.value.checkpoint)
            assert _observables(resumed) == reference, boundary
        assert captures == []

    def test_threads_verifying_one_candidate_at_different_caps_equal_serial(self, small_rm):
        """One ``iterations=1`` replay publishes its candidates; two
        threads at two other caps then meet them at once.  Either may
        settle a candidate, each binds it priced at its own clock, and
        both reports equal their serial ones."""
        capture = api.capture(small_rm)
        trace, profiler_trace = capture.execution_trace, capture.profiler_trace
        caps = _CAPS[1:3]
        serial = {
            cap: _single_replay(trace, profiler_trace, power_limit_w=cap)[0] for cap in caps
        }
        vectorize.clear()
        _single_replay(trace, profiler_trace, power_limit_w=_CAPS[0])
        (table,) = vectorize._partitions.values()
        assert any(program.state == vectorize._UNVERIFIED for program in table.values())
        barrier = threading.Barrier(len(caps))
        reports, errors = {}, []

        def replay(cap):
            try:
                barrier.wait(timeout=60)
                reports[cap] = _single_replay(trace, profiler_trace, power_limit_w=cap)[0]
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=replay, args=(cap,)) for cap in caps]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert reports == serial
        assert all(program.state == vectorize._VERIFIED for program in table.values())
