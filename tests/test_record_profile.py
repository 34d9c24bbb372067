"""Consumers that keep only summaries record no profiler trace.

``ReplayContext.record_profile`` lets the caller, not the config, decide
whether the execute stage builds a virtual profiler trace.  The ranks of a
co-replay and every batch or daemon sweep point keep only summaries,
timeline stats and kernel launches, so they replay without one; a
single-rank session hands its caller the full ``ReplayResult`` and keeps
recording.  These tests pin that the saving changes no output: cluster
reports, telemetry Gantt lanes, job summaries, cache keys and config
digests all read exactly as from ranks and points that record.
"""

from __future__ import annotations

import json

import pytest

import repro.api as api
import repro.cluster.engine as engine
import repro.core.pipeline as pipeline
from repro.cluster import ClusterReplayer
from repro.core import vectorize
from repro.core.pipeline import ReplayContext, run_replay
from repro.core.replayer import ReplayConfig
from repro.et.trace import ExecutionTrace
from repro.service.batch import ReplayJob, replay_job
from repro.service.cache import cache_key
from repro.telemetry import Tracer
from repro.workloads.ddp import DistributedRunner
from tests.conftest import make_small_rm


@pytest.fixture(scope="module")
def rm_fleet():
    return DistributedRunner(
        lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
    ).run()


def record_on_every_rank(monkeypatch):
    """Make every co-replay rank record, as each rank did before the
    engine started asking for no profiler trace."""

    def recording_context(**fields):
        fields["record_profile"] = True
        return ReplayContext(**fields)

    monkeypatch.setattr(engine, "ReplayContext", recording_context)


class MeasureTap:
    """Factory hook keeping what a rank's measure stage produced."""

    def __init__(self, taps, rank):
        self.taps = taps
        self.rank = rank

    def on_stage_end(self, context, stage):
        if stage.name == "measure":
            self.taps[self.rank] = context.result


def _gantt(tracer):
    """The tracer's virtual-time lanes: every span with a virtual axis."""
    return [
        (span.name, span.category, span.virtual_start_us, span.virtual_end_us, span.correlation)
        for span in tracer.spans
        if span.virtual_start_us is not None
    ]


def _co_replay(fleet, tracer=None):
    vectorize.clear()  # every co-replay learns its programs cold
    session = api.replay_cluster(fleet).iterations(2, warmup=1)
    if tracer is not None:
        session = session.with_telemetry(tracer)
    return json.dumps(session.run().to_dict(), sort_keys=True)


class TestCoReplayRanks:
    def test_ranks_record_no_profiler_trace(self, rm_fleet):
        taps = {}
        ClusterReplayer(
            ReplayConfig(), profile_hook_factory=lambda rank: MeasureTap(taps, rank)
        ).replay(rm_fleet)
        assert sorted(taps) == [0, 1]
        for result in taps.values():
            assert result.profiler_trace is None
            assert result.kernel_launches

    def test_recording_ranks_would_have_built_one(self, rm_fleet, monkeypatch):
        record_on_every_rank(monkeypatch)
        taps = {}
        ClusterReplayer(
            ReplayConfig(), profile_hook_factory=lambda rank: MeasureTap(taps, rank)
        ).replay(rm_fleet)
        assert all(result.profiler_trace.events for result in taps.values())

    def test_report_matches_recording_ranks(self, rm_fleet, monkeypatch):
        plain = _co_replay(rm_fleet)
        record_on_every_rank(monkeypatch)
        assert _co_replay(rm_fleet) == plain

    def test_report_and_gantt_match_recording_ranks_with_telemetry(self, rm_fleet, monkeypatch):
        tracer = Tracer()
        plain = _co_replay(rm_fleet, tracer)
        lanes = _gantt(tracer)
        assert {"compute", "comms"} <= {category for _, category, *_ in lanes}

        record_on_every_rank(monkeypatch)
        recording_tracer = Tracer()
        assert _co_replay(rm_fleet, recording_tracer) == plain
        assert _gantt(recording_tracer) == lanes


class TestSweepPoints:
    @pytest.fixture
    def job(self, small_linear_capture, tmp_path):
        trace = small_linear_capture.execution_trace
        path = tmp_path / "linear.json"
        trace.save(path)
        return ReplayJob(
            label="linear@A100",
            trace_path=path,
            trace_digest=trace.digest(),
            config=ReplayConfig(iterations=2, warmup_iterations=1),
        )

    def test_summary_matches_a_recording_replay(self, job, small_linear_capture):
        recorded = run_replay(small_linear_capture.execution_trace, config=job.config)
        assert recorded.profiler_trace is not None
        vectorize.clear()
        outcome = replay_job(job)
        assert outcome.ok
        assert outcome.summary.to_dict() == recorded.summarize().to_dict()

    def test_points_attach_no_profiler(self, job, monkeypatch):
        attached = []

        class CountingProfiler(pipeline.Profiler):
            def __init__(self):
                super().__init__()
                attached.append(self)

        monkeypatch.setattr(pipeline, "Profiler", CountingProfiler)
        assert replay_job(job).ok
        assert attached == []
        run_replay(ExecutionTrace.load(job.trace_path), config=job.config)
        assert len(attached) == 1

    def test_cache_key_and_config_digest_unchanged(self, job):
        digest = job.config.digest()
        key = job.cache_key
        assert job.config.profile is True
        assert replay_job(job).ok
        assert job.config.digest() == digest == ReplayConfig(
            iterations=2, warmup_iterations=1, profile=True
        ).digest()
        assert job.cache_key == key == cache_key(job.trace_digest, job.config)


class TestSessionKeepsRecording:
    def test_session_result_carries_the_profiler_trace(self, small_linear_capture):
        result = api.replay(small_linear_capture).iterations(2, warmup=1).run()
        assert result.profiler_trace is not None
        assert result.profiler_trace.events

    def test_profile_false_still_records_nothing(self, small_linear_capture):
        result = api.replay(small_linear_capture).configure(profile=False).run()
        assert result.profiler_trace is None
