"""Tests for the stage pipeline and the ``repro.api`` facade.

Covers stage order and context threading, hook invocation, pipeline
composition (insert/replace/skip), the fluent session builder, the
facade's cache-key stability, and the execute stage's pause/resume
checkpoints.
"""

import itertools
import json

import pytest

import repro.api as api
from repro.core import vectorize
from repro.core.pipeline import (
    BUILD_STAGE_NAMES,
    CheckpointError,
    ExecuteStage,
    MeasureStage,
    ReplayCheckpoint,
    ReplayContext,
    ReplayHook,
    ReplayPaused,
    ReplayPipeline,
    ReplayPipelineError,
    ReplayStage,
    run_replay,
)
from repro.core.replayer import ReplayConfig
from repro.service.cache import cache_key

EXPECTED_ORDER = [
    "select",
    "reconstruct",
    "materialize-tensors",
    "assign-streams",
    "init-comms",
    "execute",
    "measure",
]


def _summary_json(result) -> str:
    return json.dumps(result.summarize().to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Pipeline structure and context threading
# ----------------------------------------------------------------------
class TestPipelineStructure:
    def test_default_stage_order(self):
        assert ReplayPipeline.default().stage_names() == EXPECTED_ORDER

    def test_build_only_pipeline(self):
        assert ReplayPipeline.build_only().stage_names() == list(BUILD_STAGE_NAMES)

    def test_context_threading_through_build_stages(self, small_linear_capture):
        context = ReplayContext(
            trace=small_linear_capture.execution_trace,
            profiler_trace=small_linear_capture.profiler_trace,
            config=ReplayConfig(),
        )
        stages = {s.name: s for s in ReplayPipeline.default_stages()}
        assert context.selection is None
        stages["select"].run(context)
        assert context.selection is not None and context.selection.entries
        stages["reconstruct"].run(context)
        assert set(context.reconstructed) == {
            e.node.id for e in context.selection.supported_entries()
        }
        stages["materialize-tensors"].run(context)
        assert context.tensor_manager is not None
        stages["assign-streams"].run(context)
        assert context.stream_assignment is not None
        stages["init-comms"].run(context)
        assert context.runtime is not None
        stages["execute"].run(context)
        assert context.iteration_times_us and context.replayed_ops > 0
        stages["measure"].run(context)
        assert context.result is not None
        assert context.result.replayed_ops == context.replayed_ops

    def test_stage_requires_prerequisites(self, small_linear_capture):
        context = ReplayContext(trace=small_linear_capture.execution_trace)
        with pytest.raises(ReplayPipelineError, match="runtime"):
            ExecuteStage().run(context)

    def test_run_without_measure_stage_raises(self, small_linear_capture):
        pipeline = ReplayPipeline.default().skip("measure")
        context = ReplayContext(
            trace=small_linear_capture.execution_trace,
            profiler_trace=small_linear_capture.profiler_trace,
        )
        with pytest.raises(ReplayPipelineError, match="without producing a result"):
            pipeline.run(context)

    def test_unknown_stage_name_raises(self):
        with pytest.raises(KeyError, match="no stage named"):
            ReplayPipeline.default().skip("no-such-stage")


class TestPipelineComposition:
    def test_insert_before_and_after(self):
        class Marker(ReplayStage):
            name = "marker"

            def run(self, context):
                context.extras.setdefault("marks", []).append(self.name)

        pipeline = ReplayPipeline.default()
        pipeline.insert_before("execute", Marker())
        assert pipeline.stage_names().index("marker") == EXPECTED_ORDER.index("execute")
        pipeline.skip("marker").insert_after("execute", Marker())
        assert (
            pipeline.stage_names().index("marker")
            == pipeline.stage_names().index("execute") + 1
        )

    def test_custom_stage_sees_and_mutates_context(self, small_linear_capture):
        class TapStage(ReplayStage):
            name = "tap"

            def run(self, context):
                context.extras["ops_after_execute"] = context.replayed_ops

        pipeline = ReplayPipeline.default().insert_after("execute", TapStage())
        context = ReplayContext(
            trace=small_linear_capture.execution_trace,
            profiler_trace=small_linear_capture.profiler_trace,
        )
        result = pipeline.run(context)
        assert context.extras["ops_after_execute"] == result.replayed_ops > 0

    def test_replace_stage(self, small_linear_capture):
        class StubMeasure(MeasureStage):
            def run(self, context):
                super().run(context)
                context.extras["measured_by"] = "stub"

        pipeline = ReplayPipeline.default().replace("measure", StubMeasure())
        context = ReplayContext(
            trace=small_linear_capture.execution_trace,
            profiler_trace=small_linear_capture.profiler_trace,
        )
        pipeline.run(context)
        assert context.extras["measured_by"] == "stub"

    def test_clone_is_independent(self):
        base = ReplayPipeline.default()
        clone = base.clone().skip("measure")
        assert "measure" in base.stage_names()
        assert "measure" not in clone.stage_names()


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
class RecordingHook(ReplayHook):
    def __init__(self):
        self.events = []
        self.op_count = 0
        self.measuring_flags = set()

    def on_stage_start(self, context, stage):
        self.events.append(("start", stage.name))

    def on_stage_end(self, context, stage):
        self.events.append(("end", stage.name))

    def on_op_replayed(self, context, entry, output):
        self.op_count += 1
        self.measuring_flags.add(context.measuring)

    def on_error(self, context, stage, error):
        self.events.append(("error", stage.name, type(error).__name__))


class PartialHook:
    """Observes operators and errors only: it neither subclasses
    ``ReplayHook`` nor defines the stage or scheduler events."""

    def __init__(self):
        self.ops = 0

    def on_op_replayed(self, context, entry, output):
        self.ops += 1

    def on_error(self, context, stage, error):
        pass


class TestHooks:
    def test_stage_lifecycle_events_in_order(self, small_linear_capture):
        hook = RecordingHook()
        api.replay(small_linear_capture).hook(hook).run()
        starts = [name for kind, name in hook.events if kind == "start"]
        ends = [name for kind, name in hook.events if kind == "end"]
        assert starts == EXPECTED_ORDER
        assert ends == EXPECTED_ORDER

    def test_op_replayed_counts_match_result(self, small_linear_capture):
        hook = RecordingHook()
        result = api.replay(small_linear_capture).iterations(2, warmup=0).hook(hook).run()
        assert hook.op_count == result.replayed_ops
        assert hook.measuring_flags == {True}

    def test_warmup_ops_flagged_not_measuring(self, small_linear_capture):
        hook = RecordingHook()
        result = api.replay(small_linear_capture).iterations(1, warmup=1).hook(hook).run()
        assert hook.op_count == 2 * result.replayed_ops
        assert hook.measuring_flags == {True, False}

    def test_on_error_fires_and_reraises(self, small_linear_capture):
        class BoomStage(ReplayStage):
            name = "boom"

            def run(self, context):
                raise RuntimeError("boom")

        hook = RecordingHook()
        session = (
            api.replay(small_linear_capture)
            .hook(hook)
            .insert_stage(BoomStage(), before="execute")
        )
        with pytest.raises(RuntimeError, match="boom"):
            session.run()
        assert ("error", "boom", "RuntimeError") in hook.events

    def test_buggy_on_error_hook_does_not_mask_stage_error(self, small_linear_capture):
        class BoomStage(ReplayStage):
            name = "boom"

            def run(self, context):
                raise RuntimeError("the real failure")

        class BuggyHook(ReplayHook):
            def on_error(self, context, stage, error):
                raise AttributeError("hook bug")

        recorder = RecordingHook()
        session = (
            api.replay(small_linear_capture)
            .hook(BuggyHook(), recorder)
            .insert_stage(BoomStage(), before="execute")
        )
        # The original stage error propagates, and later hooks still hear it.
        with pytest.raises(RuntimeError, match="the real failure"):
            session.run()
        assert ("error", "boom", "RuntimeError") in recorder.events

    def test_partial_hook_replays_through_a_session(self, small_linear_capture):
        hook = PartialHook()
        result = api.replay(small_linear_capture).iterations(2).hook(hook).run()
        assert hook.ops == result.replayed_ops

    def test_partial_hook_replays_through_a_cluster(self):
        from repro.cluster.engine import ClusterReplayer
        from repro.workloads.ddp import DistributedRunner

        from tests.conftest import make_small_rm

        fleet = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        ).run()
        hooks = {}
        report = ClusterReplayer(
            ReplayConfig(), profile_hook_factory=lambda rank: hooks.setdefault(rank, PartialHook())
        ).replay(fleet)
        assert sorted(hooks) == [0, 1]
        for rank_report in report.ranks:
            assert hooks[rank_report.rank].ops == rank_report.summary.replayed_ops > 0

    def test_stage_only_hook_replays_through_a_session(self, small_linear_capture):
        class StageOnly:
            def __init__(self):
                self.stages = []

            def on_stage_start(self, context, stage):
                self.stages.append(stage.name)

        hook = StageOnly()
        result = api.replay(small_linear_capture).iterations(2, warmup=1).hook(hook).run()
        assert result.replayed_ops > 0
        assert hook.stages == EXPECTED_ORDER

    def test_op_observers_skip_hooks_without_the_method(self, small_linear_capture):
        partial, recording = PartialHook(), RecordingHook()
        context = ReplayContext(
            trace=small_linear_capture.execution_trace, hooks=[object(), partial, recording]
        )
        assert context.op_observers() == [partial.on_op_replayed, recording.on_op_replayed]
        assert ReplayContext(trace=small_linear_capture.execution_trace).op_observers() == []

    def test_factory_hook_without_report_leaves_the_profile_empty(self):
        from repro.cluster.engine import ClusterReplayer
        from repro.workloads.ddp import DistributedRunner

        from tests.conftest import make_small_rm

        class OpsOnly:
            def __init__(self):
                self.ops = 0

            def on_op_replayed(self, context, entry, output):
                self.ops += 1

        fleet = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        ).run()
        hooks = {}
        report = ClusterReplayer(
            ReplayConfig(), profile_hook_factory=lambda rank: hooks.setdefault(rank, OpsOnly())
        ).replay(fleet)
        assert [rank_report.rank for rank_report in report.ranks] == [0, 1]
        for rank_report in report.ranks:
            assert rank_report.profile is None
            assert hooks[rank_report.rank].ops == rank_report.summary.replayed_ops > 0
        assert not report.has_profiles

    def test_stage_hook_first_then_user_hooks_once_each(self, small_linear_capture, monkeypatch):
        from repro.telemetry import ProfileHook

        log = []
        profile_start = ProfileHook.on_stage_start

        def logged_start(hook, context, stage):
            log.append(("profile", stage.name))
            profile_start(hook, context, stage)

        monkeypatch.setattr(ProfileHook, "on_stage_start", logged_start)

        class NamedHook:
            def __init__(self, name):
                self.name = name

            def on_stage_start(self, context, stage):
                log.append((self.name, stage.name))

            def on_op_replayed(self, context, entry, output):
                pass

        first, second = NamedHook("first"), NamedHook("second")
        result = (
            api.replay(small_linear_capture)
            .with_profiling()
            .with_telemetry()
            .hook(first, second)
            .hook(first)
            .run()
        )
        assert log == [
            (who, stage) for stage in EXPECTED_ORDER for who in ("profile", "first", "second")
        ]
        assert set(result.profile_report.stage_wall_s) == set(EXPECTED_ORDER)

    def test_optrace_and_timing_hooks(self, small_linear_capture):
        op_trace = api.OpTraceHook()
        taps = []
        result = (
            api.replay(small_linear_capture)
            .iterations(1)
            .hook(op_trace, api.MetricsTapHook(taps.append))
            .with_profiling()
            .run()
        )
        assert len(op_trace.measured()) == result.replayed_ops
        # Stage timing is a view over the profile hook's stage spans.
        assert set(result.profile_report.stage_wall_s) == set(EXPECTED_ORDER)
        assert len(taps) == 1
        assert taps[0]["replayed_ops"] == result.replayed_ops


# ----------------------------------------------------------------------
# The fluent session builder
# ----------------------------------------------------------------------
class TestReplaySession:
    def test_fluent_configuration(self, small_linear_capture):
        session = (
            api.replay(small_linear_capture)
            .on("V100")
            .select(categories=("aten",), subtrace="## forward ##")
            .iterations(3, warmup=1)
            .power_limit(250.0)
        )
        config = session.config
        assert config.device == "V100"
        assert config.categories == ("aten",)
        assert config.subtrace_label == "## forward ##"
        assert config.iterations == 3
        assert config.warmup_iterations == 1
        assert config.power_limit_w == 250.0

    def test_capture_source_seeds_device_and_profiler(self, small_linear_capture):
        session = api.replay(small_linear_capture)
        assert session.config.device == small_linear_capture.device
        result = session.iterations(2).run()
        assert len(result.iteration_times_us) == 2

    def test_configure_rejects_unknown_fields(self, small_linear_capture):
        with pytest.raises(TypeError):
            api.replay(small_linear_capture).configure(iteratons=3)

    def test_replay_from_path(self, small_linear_capture, tmp_path):
        path = small_linear_capture.execution_trace.save(tmp_path / "linear_et.json")
        result = api.replay(str(path)).iterations(1).run()
        assert result.replayed_ops > 0

    def test_path_source_is_loaded_lazily(self, tmp_path):
        # Building a session must not touch the filesystem; only run() does.
        session = api.replay(str(tmp_path / "missing.json")).iterations(1)
        with pytest.raises(FileNotFoundError):
            session.run()

    def test_dry_build_via_run_context(self, small_linear_capture):
        context = api.replay(small_linear_capture).without_stage(
            "init-comms", "execute", "measure"
        ).run_context()
        assert context.selection is not None
        assert context.reconstructed
        assert context.result is None and context.runtime is None

    def test_replay_rejects_bad_source(self):
        with pytest.raises(TypeError, match="expects an ExecutionTrace"):
            api.replay(42)

    def test_sessions_do_not_share_pipelines(self, small_linear_capture):
        one = api.replay(small_linear_capture).without_stage("measure")
        two = api.replay(small_linear_capture)
        assert "measure" not in one.pipeline.stage_names()
        assert "measure" in two.pipeline.stage_names()


# ----------------------------------------------------------------------
# Cache-key stability
# ----------------------------------------------------------------------
class TestEquivalenceWithLegacyReplayer:
    def test_cache_keys_unchanged_across_paths(self, small_linear_capture):
        config = ReplayConfig(iterations=2)
        digest = small_linear_capture.execution_trace.digest()
        assert cache_key(digest, config) == cache_key(digest, ReplayConfig(iterations=2))


# ----------------------------------------------------------------------
# capture / compare / sweep facade entry points
# ----------------------------------------------------------------------
class TestFacadeEntryPoints:
    def test_capture_and_compare(self, small_param_linear):
        capture = api.capture(small_param_linear, device="A100", warmup_iterations=0)
        assert capture.execution_trace is not None
        row = api.compare(small_param_linear, device="A100", capture_result=capture)
        assert row.replay_error < 0.15

    def test_sweep_facade_runs_and_caches(self, small_linear_capture, tmp_path):
        repo = tmp_path / "traces"
        repo.mkdir()
        small_linear_capture.execution_trace.save(repo / "linear_et.json")
        cache_dir = tmp_path / "cache"
        first = api.sweep(
            repo,
            devices=["A100", "V100"],
            base=ReplayConfig(iterations=1),
            cache_dir=cache_dir,
            backend="serial",
        )
        assert first.batch.replayed_count == 2 and first.batch.error_count == 0
        second = api.sweep(
            repo,
            devices=["A100", "V100"],
            base=ReplayConfig(iterations=1),
            cache_dir=cache_dir,
            backend="serial",
        )
        assert second.batch.cached_count == 2 and second.batch.replayed_count == 0

    def test_sweep_rejects_spec_plus_builder_kwargs(self, tmp_path):
        from repro.service.sweep import SweepSpec

        with pytest.raises(ValueError, match="not both"):
            api.sweep(tmp_path, spec=SweepSpec(), devices=["V100"])


# ----------------------------------------------------------------------
# Pause/resume checkpoints
# ----------------------------------------------------------------------
class TestCheckpointFromDict:
    VALID = ReplayCheckpoint(
        trace_digest="t" * 64,
        config_digest="c" * 64,
        completed_warmup=2,
        completed_iterations=1,
        clock_fingerprint=[{"0": 12.5}, 7, 9, "main"],
        iteration_times_us=[12.0],
        replayed_ops=4,
        measure_start_us=3.5,
    ).to_dict()

    @pytest.mark.parametrize(
        "token",
        [
            ["not", "an", "object"],
            {key: value for key, value in VALID.items() if key != "trace_digest"},
            {**VALID, "completed_warmup": None},
            {**VALID, "completed_warmup": -1},
            {**VALID, "completed_iterations": True},
            {**VALID, "iteration_times_us": "12"},
            {**VALID, "iteration_times_us": [float("inf")]},
            {**VALID, "clock_fingerprint": "abc"},
            {**VALID, "schema_version": True},
        ],
        ids=[
            "non-object", "missing-digest", "null-count", "negative-count",
            "bool-count", "string-times", "infinite-time", "string-fingerprint",
            "bool-version",
        ],
    )
    def test_malformed_token_raises_checkpoint_error(self, token):
        with pytest.raises(CheckpointError):
            ReplayCheckpoint.from_dict(token)


class TestPauseResumePin:
    """Single-rank pause/resume through ``run_replay``.  The pause request
    comes from a boundary counter, never a timer, so it cannot lose a race
    to the finish."""

    CONFIG = ReplayConfig(iterations=3, warmup_iterations=2)
    #: (completed warm-up, completed measured) at each pausable boundary;
    #: the fifth boundary ends the replay, where finishing beats pausing.
    BOUNDARIES = [(1, 0), (2, 0), (2, 1), (2, 2)]

    @staticmethod
    def _pause_at(boundary: int):
        calls = itertools.count(1)
        return lambda: next(calls) == boundary

    def _paused_token(self, capture, boundary: int) -> dict:
        vectorize.clear()
        with pytest.raises(ReplayPaused) as paused:
            run_replay(
                capture.execution_trace,
                config=self.CONFIG,
                profiler_trace=capture.profiler_trace,
                pause_check=self._pause_at(boundary),
            )
        return json.loads(json.dumps(paused.value.checkpoint.to_dict()))

    def test_resume_at_every_boundary_is_byte_identical(self, small_linear_capture):
        trace = small_linear_capture.execution_trace
        profiler_trace = small_linear_capture.profiler_trace
        reference = _summary_json(
            run_replay(trace, config=self.CONFIG, profiler_trace=profiler_trace)
        )
        for boundary, position in enumerate(self.BOUNDARIES, start=1):
            checkpoint = ReplayCheckpoint.from_dict(
                self._paused_token(small_linear_capture, boundary)
            )
            assert (checkpoint.completed_warmup, checkpoint.completed_iterations) == position
            # Resume cold, as a fresh process would.
            vectorize.clear()
            resumed = run_replay(
                trace, config=self.CONFIG, profiler_trace=profiler_trace,
                resume_from=checkpoint,
            )
            assert _summary_json(resumed) == reference, boundary
        vectorize.clear()
        finished = run_replay(
            trace, config=self.CONFIG, profiler_trace=profiler_trace,
            pause_check=self._pause_at(len(self.BOUNDARIES) + 1),
        )
        assert _summary_json(finished) == reference

    def test_resume_under_another_config_raises(self, small_linear_capture):
        checkpoint = ReplayCheckpoint.from_dict(self._paused_token(small_linear_capture, 3))
        with pytest.raises(CheckpointError, match="different ReplayConfig"):
            run_replay(
                small_linear_capture.execution_trace,
                config=ReplayConfig(iterations=3, warmup_iterations=2, device="V100"),
                profiler_trace=small_linear_capture.profiler_trace,
                resume_from=checkpoint,
            )

    def test_resume_on_another_trace_raises(self, small_linear_capture, captured_runtime_pieces):
        checkpoint = ReplayCheckpoint.from_dict(self._paused_token(small_linear_capture, 3))
        with pytest.raises(CheckpointError, match="trace digest"):
            run_replay(
                captured_runtime_pieces["trace"],
                config=self.CONFIG,
                profiler_trace=captured_runtime_pieces["profiler_trace"],
                resume_from=checkpoint,
            )

    def test_resume_with_tampered_fingerprint_raises(self, small_linear_capture):
        token = self._paused_token(small_linear_capture, 3)
        token["clock_fingerprint"][1] += 1  # the next ET node id
        with pytest.raises(CheckpointError, match="clock fingerprint"):
            run_replay(
                small_linear_capture.execution_trace,
                config=self.CONFIG,
                profiler_trace=small_linear_capture.profiler_trace,
                resume_from=ReplayCheckpoint.from_dict(token),
            )

    def test_resume_with_tampered_measured_prefix_raises(self, small_linear_capture):
        """Boundary 3 is (2 warm-up, 1 measured): the token carries one
        measured iteration time, which the resumed replay re-creates."""
        token = self._paused_token(small_linear_capture, 3)
        assert len(token["iteration_times_us"]) == 1
        token["iteration_times_us"][0] += 1.0
        with pytest.raises(CheckpointError, match="iteration times"):
            run_replay(
                small_linear_capture.execution_trace,
                config=self.CONFIG,
                profiler_trace=small_linear_capture.profiler_trace,
                resume_from=ReplayCheckpoint.from_dict(token),
            )

    def test_explicit_pipeline_honours_pause_and_resume(self, small_linear_capture):
        """Pause and resume live on the context, so a composed pipeline
        checkpoints exactly like the default one."""
        tapped = []

        class Tap(ReplayStage):
            name = "tap"

            def run(self, context):
                tapped.append(context.replayed_ops)

        def pipeline():
            return ReplayPipeline.default().insert_after("execute", Tap())

        trace = small_linear_capture.execution_trace
        profiler_trace = small_linear_capture.profiler_trace
        reference = _summary_json(
            run_replay(trace, config=self.CONFIG, profiler_trace=profiler_trace)
        )
        with pytest.raises(ReplayPaused) as paused:
            run_replay(
                trace, config=self.CONFIG, profiler_trace=profiler_trace,
                pipeline=pipeline(), pause_check=self._pause_at(2),
            )
        assert tapped == []
        resumed = run_replay(
            trace, config=self.CONFIG, profiler_trace=profiler_trace,
            pipeline=pipeline(), resume_from=paused.value.checkpoint,
        )
        assert _summary_json(resumed) == reference
        assert len(tapped) == 1

    def test_execute_stage_reads_pause_from_the_context(self, small_linear_capture):
        context = ReplayContext(
            trace=small_linear_capture.execution_trace,
            profiler_trace=small_linear_capture.profiler_trace,
            config=self.CONFIG,
            pause_check=lambda: True,
        )
        ReplayPipeline.build_only().run_context(context)
        stages = {stage.name: stage for stage in ReplayPipeline.default_stages()}
        stages["init-comms"].run(context)
        with pytest.raises(ReplayPaused) as paused:
            ExecuteStage().run(context)
        assert paused.value.checkpoint.completed_warmup == 1
