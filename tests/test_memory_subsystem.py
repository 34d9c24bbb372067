"""Tests for the device-memory simulation subsystem (``repro.memory``).

Covers the four layers and their integrations:

* the caching-allocator model (rounding, splitting, reuse, reserved vs
  allocated, OOM),
* tensor lifetime analysis (roles, liveness, external persistence),
* footprint timelines and OOM what-ifs through the ``track-memory`` stage,
  the session facade, the cluster engine, the scale-down validator and the
  CLI, and
* the acceptance contract: with tracking disabled, replay results and
  cache digests are **byte-identical** to pre-memory behaviour; with it
  enabled, an undersized budget yields a structured OOM event naming the
  failing operator.
"""

from __future__ import annotations

import json

import pytest

import repro.api as api
from repro.bench.harness import capture_workload
from repro.core.pipeline import ReplayPipeline, TrackMemoryStage
from repro.core.scaledown import ScaleDownConfig, ScaleDownEmulator
from repro.et.analyzer import (
    backward_node_ids,
    node_input_tensor_bytes,
    node_output_tensor_bytes,
    tensor_bytes_from_shape,
    tensor_ref_bytes,
)
from repro.memory import (
    ROLE_ACTIVATION,
    ROLE_GRADIENT,
    ROLE_PARAMETER,
    CachingAllocator,
    SimulatedOOM,
    SimulatedOOMError,
    analyze_lifetimes,
    device_capacity_bytes,
    format_bytes,
    parse_byte_size,
    simulate_memory,
)
from repro.memory.allocator import (
    LARGE_SEGMENT_BYTES,
    MIN_BLOCK_BYTES,
    SMALL_SEGMENT_BYTES,
    round_block_size,
    segment_size_for,
)
from repro.service.cli import main as cli_main
from repro.service.repository import TraceRepository
from repro.workloads import DistributedRunner
from tests.conftest import make_small_rm


# ----------------------------------------------------------------------
# Allocator model
# ----------------------------------------------------------------------
class TestCachingAllocator:
    def test_rounding_and_segment_sizing(self):
        assert round_block_size(1) == MIN_BLOCK_BYTES
        assert round_block_size(512) == 512
        assert round_block_size(513) == 1024
        assert segment_size_for(4096) == SMALL_SEGMENT_BYTES
        assert segment_size_for(2 << 20) == LARGE_SEGMENT_BYTES
        # Dedicated large segments round to 2 MiB.
        assert segment_size_for(11 << 20) == 12 << 20

    def test_reserved_vs_allocated_and_cache_reuse(self):
        allocator = CachingAllocator(capacity_bytes=1 << 30)
        block = allocator.malloc(100_000)
        stats = allocator.stats()
        assert stats.allocated_bytes == round_block_size(100_000)
        assert stats.reserved_bytes == SMALL_SEGMENT_BYTES
        assert stats.reserved_bytes >= stats.allocated_bytes

        allocator.free(block)
        assert allocator.allocated_bytes == 0
        # Freed memory stays reserved (cached), and the next same-size
        # malloc is served from the cache without touching the device.
        assert allocator.reserved_bytes == SMALL_SEGMENT_BYTES
        before = allocator.stats().device_mallocs
        allocator.malloc(100_000)
        after = allocator.stats()
        assert after.device_mallocs == before
        assert after.cache_hits >= 1

    def test_block_splitting_shares_one_segment(self):
        allocator = CachingAllocator(capacity_bytes=1 << 30)
        blocks = [allocator.malloc(10_000) for _ in range(8)]
        stats = allocator.stats()
        assert stats.segments == 1  # all split out of one 2 MiB segment
        assert stats.active_blocks == 8
        for block in blocks:
            allocator.free(block)
        # Full free coalesces back to a single cached block.
        assert allocator.stats().cached_blocks == 1
        allocator.check_consistency()

    def test_empty_cache_returns_pool_to_device(self):
        allocator = CachingAllocator(capacity_bytes=1 << 30)
        block = allocator.malloc(5 << 20)
        allocator.free(block)
        assert allocator.reserved_bytes > 0
        released = allocator.empty_cache()
        assert released == LARGE_SEGMENT_BYTES
        assert allocator.reserved_bytes == 0
        assert allocator.stats().segments == 0

    def test_oom_after_cache_release_retry(self):
        allocator = CachingAllocator(capacity_bytes=24 << 20)
        cached = allocator.malloc(15 << 20)  # dedicated 16 MiB segment
        allocator.free(cached)               # stays reserved (cached)
        # An 18 MiB segment only fits once the cached 16 MiB is released —
        # the allocator must retry after empty_cache, not OOM.
        survivor = allocator.malloc(18 << 20)
        assert allocator.stats().device_frees == 1
        assert allocator.reserved_bytes == 18 << 20
        # With 18 MiB live, nothing releasable remains: a further large
        # request is a genuine OOM carrying the stats snapshot.
        with pytest.raises(SimulatedOOM) as exc:
            allocator.malloc(30 << 20)
        assert exc.value.requested_bytes == round_block_size(30 << 20)
        assert exc.value.stats.capacity_bytes == 24 << 20
        allocator.free(survivor)
        allocator.check_consistency()

    def test_double_free_rejected(self):
        allocator = CachingAllocator(capacity_bytes=1 << 30)
        block = allocator.malloc(1024)
        allocator.free(block)
        with pytest.raises(ValueError):
            allocator.free(block)

    def test_per_stream_free_lists_not_shared(self):
        allocator = CachingAllocator(capacity_bytes=1 << 30)
        block = allocator.malloc(100_000, stream=1)
        allocator.free(block)
        # A different stream cannot reuse stream 1's cached block.
        allocator.malloc(100_000, stream=2)
        assert allocator.stats().segments == 2

    def test_device_capacity_and_parse_helpers(self):
        assert device_capacity_bytes("V100") == 16 * (1 << 30)
        assert parse_byte_size("2GB") == 2 << 30
        assert parse_byte_size("512MiB") == 512 << 20
        assert parse_byte_size(12345) == 12345
        assert format_bytes(20 << 20) == "20.00 MiB"


# ----------------------------------------------------------------------
# Lifetime analysis
# ----------------------------------------------------------------------
class TestLifetimes:
    def test_roles_and_liveness(self, small_linear_capture):
        trace = small_linear_capture.execution_trace
        analysis = analyze_lifetimes(trace)
        roles = analysis.by_role_bytes()
        # A training iteration has weights/inputs, activations and grads.
        assert roles[ROLE_PARAMETER] > 0
        assert roles[ROLE_ACTIVATION] > 0
        assert roles[ROLE_GRADIENT] > 0
        assert analysis.external_bytes() == roles[ROLE_PARAMETER]
        assert 0 < analysis.live_bytes_peak() <= analysis.total_bytes()

    def test_gradients_come_from_autograd_scope(self, small_linear_capture):
        trace = small_linear_capture.execution_trace
        backward = backward_node_ids(trace)
        assert backward  # the capture ran a backward pass
        analysis = analyze_lifetimes(trace)
        for lifetime in analysis.lifetimes.values():
            if lifetime.role == ROLE_GRADIENT:
                assert lifetime.producer_node_id in backward

    def test_external_tensors_never_die(self, small_linear_capture):
        analysis = analyze_lifetimes(small_linear_capture.execution_trace)
        dead = {
            lifetime.key
            for index in range(len(analysis.operators))
            for lifetime in analysis.deaths_at(index)
        }
        for lifetime in analysis.lifetimes.values():
            if lifetime.external:
                assert lifetime.key not in dead

    def test_size_helpers_agree(self, small_linear_capture):
        trace = small_linear_capture.execution_trace
        node = next(node for node in trace.operators() if node.output_tensor_refs())
        ref = node.output_tensor_refs()[0]
        assert tensor_ref_bytes(ref) == ref[3] * ref[4]
        assert node_output_tensor_bytes(node) == sum(
            tensor_ref_bytes(r) for r in node.output_tensor_refs()
        )
        assert node_input_tensor_bytes(node) >= 0
        assert tensor_bytes_from_shape([8, 4], "Tensor(float32)") == 128
        assert tensor_bytes_from_shape([8, 4], "Tensor(int64)") == 256


# ----------------------------------------------------------------------
# Reports and the session facade
# ----------------------------------------------------------------------
class TestMemoryReplay:
    def test_simulate_memory_report_shape(self, small_linear_capture):
        report = simulate_memory(
            small_linear_capture.execution_trace, device="A100", trace_name="lin"
        )
        assert report.fits
        assert report.peak_allocated_bytes >= report.live_bytes_peak
        assert report.peak_reserved_bytes >= report.peak_allocated_bytes
        assert report.capacity_bytes == device_capacity_bytes("A100")
        assert report.timeline  # one point per selected operator
        assert report.timeline[-1].index == len(report.timeline) - 1
        data = report.to_dict()
        json.dumps(data)  # fully serialisable
        assert data["fits"] is True

    def test_session_with_memory_attaches_report(self, small_linear_capture):
        hook = api.MemoryHook()
        result = (
            api.replay(small_linear_capture).iterations(1).with_memory().hook(hook).run()
        )
        assert result.memory_report is not None
        assert result.memory_report.fits
        assert hook.report is result.memory_report
        assert hook.peak_allocated_bytes == result.memory_report.peak_allocated_bytes

    def test_equivalence_with_tracking_disabled(self, small_linear_capture):
        """The acceptance contract: tracking off == pre-memory behaviour,
        tracking on changes nothing about the measurements."""
        plain = api.replay(small_linear_capture).iterations(2).run()
        tracked = api.replay(small_linear_capture).iterations(2).with_memory().run()
        assert plain.memory_report is None
        assert tracked.memory_report is not None
        # Byte-identical measurements (and therefore cache digests, which
        # hash exactly this serialised summary).
        assert (
            json.dumps(plain.summarize().to_dict(), sort_keys=True)
            == json.dumps(tracked.summarize().to_dict(), sort_keys=True)
        )
        # The config carries no memory fields, so config digests cannot
        # change either.
        assert "memory" not in json.dumps(sorted(api.ReplayConfig().to_dict()))

    def test_undersized_budget_records_structured_oom(self, small_linear_capture):
        result = (
            api.replay(small_linear_capture)
            .with_memory(budget="64KB")
            .run()
        )
        report = result.memory_report
        assert not report.fits
        assert report.oom is not None
        assert report.oom.op_name  # names the failing operator
        assert report.oom.requested_bytes > 0
        assert report.oom.capacity_bytes == 64 << 10
        assert report.oom.snapshot["stats"]["capacity_bytes"] == 64 << 10

    def test_undersized_budget_raise_mode(self, small_linear_capture):
        with pytest.raises(SimulatedOOMError) as exc:
            api.replay(small_linear_capture).with_memory(
                budget="64KB", on_oom="raise"
            ).run()
        assert exc.value.event.op_name
        assert "OOM at op" in str(exc.value)

    def test_memory_hook_captures_report_even_on_oom_raise(self, small_linear_capture):
        hook = api.MemoryHook()
        with pytest.raises(SimulatedOOMError):
            api.replay(small_linear_capture).with_memory(
                budget="64KB", on_oom="raise"
            ).hook(hook).run()
        assert hook.report is not None
        assert not hook.report.fits

    def test_with_memory_twice_replaces_stage(self, small_linear_capture):
        session = api.replay(small_linear_capture).with_memory().with_memory(budget="1GB")
        assert session.pipeline.stage_names().count("track-memory") == 1

    def test_track_memory_stage_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            TrackMemoryStage(on_oom="explode")

    def test_default_pipeline_has_no_memory_stage(self):
        assert "track-memory" not in ReplayPipeline.default().stage_names()


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------
class TestClusterMemory:
    @pytest.fixture(scope="class")
    def rm_fleet(self):
        runner = DistributedRunner(
            lambda rank, world: make_small_rm(rank, world),
            world_size=2,
            warmup_iterations=0,
        )
        return runner.run()

    def test_per_rank_footprints_and_max_rank(self, rm_fleet):
        report = api.replay_cluster(rm_fleet).on("A100").with_memory().run()
        assert report.has_memory
        assert len(report.ranks) == 2
        for rank in report.ranks:
            assert rank.memory is not None
            assert rank.memory.fits
            assert rank.peak_allocated_bytes > 0
        assert report.max_memory_rank in {0, 1}
        assert report.peak_allocated_bytes == max(
            r.peak_allocated_bytes for r in report.ranks
        )
        data = report.to_dict()
        assert data["memory"]["max_memory_rank"] == report.max_memory_rank
        assert data["ranks"][0]["memory"]["fits"] is True

    def test_memoryless_report_serialises_without_memory_keys(self, rm_fleet):
        report = api.replay_cluster(rm_fleet).on("A100").run()
        assert not report.has_memory
        data = report.to_dict()
        assert "memory" not in data
        assert all("memory" not in rank for rank in data["ranks"])

    def test_oom_rank_recorded_not_raised(self, rm_fleet):
        report = (
            api.replay_cluster(rm_fleet).on("A100").with_memory(budget="64KB").run()
        )
        assert report.oom_ranks == [0, 1]  # both ranks exceed 64 KiB
        assert report.to_dict()["memory"]["oom_ranks"] == [0, 1]


# ----------------------------------------------------------------------
# Scale-down validation
# ----------------------------------------------------------------------
class TestScaleDownValidation:
    def test_fit_passes_and_reports(self, small_linear_capture):
        emulator = ScaleDownEmulator(ScaleDownConfig(emulated_world_size=4, replay_ranks=2))
        report = emulator.validate_memory(small_linear_capture.execution_trace)
        assert report.fits
        assert report.device == "A100"

    def test_unfit_raises_before_replay(self, small_linear_capture):
        emulator = ScaleDownEmulator(ScaleDownConfig(emulated_world_size=4, replay_ranks=2))
        with pytest.raises(SimulatedOOMError):
            emulator.validate_memory(small_linear_capture.execution_trace, budget="64KB")

    def test_emulate_with_validation_attaches_reports(self, small_linear_capture):
        emulator = ScaleDownEmulator(
            ScaleDownConfig(emulated_world_size=2, replay_ranks=1, iterations=1)
        )
        outcome = emulator.emulate(
            [small_linear_capture.execution_trace], validate_memory=True
        )
        assert len(outcome["memory_reports"]) == 1
        assert outcome["memory_reports"][0].fits
        # Without the flag the key is absent — pre-PR dict shape.
        plain = emulator.emulate([small_linear_capture.execution_trace])
        assert "memory_reports" not in plain


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def memory_cli_repo(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory_cli_traces")
    repo = TraceRepository(root)
    capture = capture_workload(make_small_rm(), warmup_iterations=0)
    repo.add("rm", capture.execution_trace)
    return root


class TestMemoryCli:
    def test_memory_report_table(self, memory_cli_repo, capsys):
        assert cli_main(["memory-report", "--repo", str(memory_cli_repo)]) == 0
        out = capsys.readouterr().out
        assert "Simulated device memory on A100" in out
        assert "peak allocated" in out

    def test_memory_report_json_and_oom_exit_code(self, memory_cli_repo, capsys):
        code = cli_main(
            ["memory-report", "--repo", str(memory_cli_repo),
             "--budget-gb", "0.0001", "--json"]
        )
        assert code == 1  # the trace does not fit the what-if budget
        payload = json.loads(capsys.readouterr().out)
        assert payload["oom"] == ["rm"]
        report = payload["reports"]["rm"]
        assert report["fits"] is False
        assert report["oom"]["op_name"]

    def test_memory_report_unknown_trace_errors(self, memory_cli_repo, capsys):
        # memory-report resolves names through TraceRepository.select, as
        # replay and sweep do: one wording, never a repr-quoted KeyError.
        for command in ("memory-report", "replay", "sweep"):
            assert cli_main(
                [command, "--repo", str(memory_cli_repo), "--trace", "nope"]
            ) == 1, command
            err = capsys.readouterr().err
            assert err.startswith("error: no trace named 'nope' in "), (command, err)

    def test_orphan_dependent_flags_are_usage_errors(self, memory_cli_repo, capsys):
        assert cli_main(
            ["replay", "--repo", str(memory_cli_repo), "--memory-budget-gb", "8"]
        ) == 2
        assert "--memory-budget-gb requires --memory" in capsys.readouterr().err
        assert cli_main(
            ["memory-report", "--repo", str(memory_cli_repo), "--timeline"]
        ) == 2
        assert "--json" in capsys.readouterr().err

    def test_replay_with_memory_flag(self, memory_cli_repo, capsys):
        assert cli_main(
            ["replay", "--repo", str(memory_cli_repo), "--memory", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["memory"]["rm"]["fits"] is True
        assert payload["memory"]["rm"]["peak_allocated_bytes"] > 0

    def test_replay_without_memory_flag_has_no_memory_key(self, memory_cli_repo, capsys):
        assert cli_main(["replay", "--repo", str(memory_cli_repo), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "memory" not in payload

    def test_version_json(self, capsys):
        assert cli_main(["version", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["package"] == "repro"
