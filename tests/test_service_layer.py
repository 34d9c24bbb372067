"""Tests for the batch orchestration subsystem (repro.service).

Covers repository discovery/validation on a temp directory of traces,
result-cache hit/miss behaviour, parallel-vs-sequential batch equivalence,
sweep expansion, and the config/trace digesting the cache keys on.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.bench.aggregate import aggregate_by_device, cache_summary_line, format_batch_report
from repro.bench.harness import capture_workload
from repro.core.replayer import ReplayConfig, ReplayResultSummary
from repro.core.tensors import EmbeddingValueConfig
from repro.hardware.network import InterconnectSpec
from repro.service import (
    BatchReplayer,
    ReplayJob,
    ResultCache,
    SweepRunner,
    SweepSpec,
    TraceRepository,
    TraceValidationError,
)
from repro.service import repository as repository_module
from repro.service.cache import cache_key
from repro.et.trace import ExecutionTrace
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload


# ----------------------------------------------------------------------
# Fixtures: a repository of three small captured traces
# ----------------------------------------------------------------------
def _small_linear(layers: int) -> ParamLinearWorkload:
    return ParamLinearWorkload(
        ParamLinearConfig(batch_size=16, num_layers=layers, hidden_size=64, input_size=64)
    )


@pytest.fixture(scope="module")
def trace_repo_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("traces")
    repo = TraceRepository(root)
    for layers in (2, 3, 4):
        capture = capture_workload(_small_linear(layers), warmup_iterations=0)
        repo.add(f"linear_{layers}", capture.execution_trace)
    return root


@pytest.fixture
def repo(trace_repo_dir) -> TraceRepository:
    return TraceRepository(trace_repo_dir)


# ----------------------------------------------------------------------
# ReplayConfig serialisation / identity
# ----------------------------------------------------------------------
class TestReplayConfigIdentity:
    def test_round_trip(self):
        config = ReplayConfig(
            device="V100",
            iterations=3,
            categories=("compute", "comms"),
            power_limit_w=250.0,
            interconnect=InterconnectSpec(inter_node_bw_gbps=50.0),
            embedding_config=EmbeddingValueConfig(table_size=1234),
        )
        rebuilt = ReplayConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.digest() == config.digest()

    def test_none_embedding_round_trips(self):
        config = ReplayConfig(embedding_config=None, interconnect=None)
        rebuilt = ReplayConfig.from_dict(config.to_dict())
        assert rebuilt.embedding_config is None
        assert rebuilt == config

    def test_digest_distinguishes_configs(self):
        assert ReplayConfig(device="A100").digest() != ReplayConfig(device="V100").digest()
        assert ReplayConfig(iterations=1).digest() != ReplayConfig(iterations=2).digest()

    def test_hashable(self):
        configs = {ReplayConfig(device="A100"), ReplayConfig(device="A100")}
        assert len(configs) == 1

    def test_from_dict_rejects_unknown_keys(self):
        data = ReplayConfig().to_dict()
        data["future_knob"] = 42
        with pytest.raises(ValueError, match="future_knob"):
            ReplayConfig.from_dict(data)

    def test_from_dict_partial_keeps_defaults(self):
        # Absent keys must keep dataclass defaults — in particular the
        # embedding-value default must not silently collapse to None.
        config = ReplayConfig.from_dict({"device": "V100"})
        assert config.embedding_config == EmbeddingValueConfig()
        assert config == ReplayConfig(device="V100")
        assert config.digest() == ReplayConfig(device="V100").digest()


class TestTraceDigest:
    def test_digest_independent_of_formatting(self, repo, tmp_path):
        record = repo.discover()[0]
        trace = repo.load(record)
        pretty = tmp_path / "pretty.json"
        pretty.write_text(trace.to_json(indent=2))
        from repro.et.trace import ExecutionTrace

        assert ExecutionTrace.load(pretty).digest() == record.digest

    def test_digest_changes_with_metadata(self, repo):
        trace = repo.load(repo.discover()[0])
        before = trace.digest()
        trace.metadata["note"] = "changed"
        assert trace.digest() != before


# ----------------------------------------------------------------------
# Repository
# ----------------------------------------------------------------------
class TestTraceRepository:
    def test_discovery_finds_all_traces(self, repo):
        assert repo.names() == ["linear_2", "linear_3", "linear_4"]
        for record in repo:
            assert record.num_nodes > 0
            assert record.num_operators > 0
            assert record.workload == "param_linear"
            assert len(record.digest) == 64

    def test_non_trace_json_is_skipped(self, trace_repo_dir):
        junk = trace_repo_dir / "not_a_trace.json"
        junk.write_text(json.dumps({"kernels": [1, 2, 3]}))
        try:
            repo = TraceRepository(trace_repo_dir)
            assert "not_a_trace" not in repo.names()
            assert junk in repo.invalid
        finally:
            junk.unlink()

    def test_corrupt_json_is_skipped(self, trace_repo_dir):
        junk = trace_repo_dir / "corrupt.json"
        junk.write_text("{ this is not json")
        try:
            repo = TraceRepository(trace_repo_dir)
            assert repo.names() == ["linear_2", "linear_3", "linear_4"]
            assert "unreadable JSON" in repo.invalid[junk]
        finally:
            junk.unlink()

    def test_wrong_shape_file_does_not_break_discovery(self, repo, tmp_path):
        good = repo.load("linear_2")
        good.save(tmp_path / "good.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"metadata": [1], "nodes": [{"name": "r", "id": 1, "parent": 0}]}
        ))
        repository = TraceRepository(tmp_path)
        assert [record.digest for record in repository.discover()] == [good.digest()]
        assert list(repository.invalid) == [bad]

    def test_get_unknown_name_raises(self, repo):
        with pytest.raises(KeyError, match="no trace named"):
            repo.get("missing")

    def test_load_round_trips(self, repo):
        record = repo.get("linear_2")
        trace = repo.load("linear_2")
        assert trace.digest() == record.digest
        assert len(trace) == record.num_nodes

    def test_validate_trace_dict_rejects_bad_shapes(self):
        with pytest.raises(TraceValidationError):
            ExecutionTrace.from_dict([1, 2])
        with pytest.raises(TraceValidationError):
            ExecutionTrace.from_dict({"nodes": []})
        with pytest.raises(TraceValidationError):
            ExecutionTrace.from_dict({"nodes": [{"name": "x"}]})


# ----------------------------------------------------------------------
# Incremental discovery
# ----------------------------------------------------------------------
@pytest.fixture
def load_calls(monkeypatch):
    """File names passed to ``ExecutionTrace.load``, in call order."""
    calls = []
    original = ExecutionTrace.load.__func__

    def counting(cls, path):
        calls.append(Path(path).name)
        return original(cls, path)

    monkeypatch.setattr(ExecutionTrace, "load", classmethod(counting))
    return calls


@pytest.fixture
def settled(monkeypatch):
    """Treat every file as older than the racy window, so an unchanged
    stat signature alone decides whether a file is read again."""
    monkeypatch.setattr(repository_module, "RACY_WINDOW_NS", float("-inf"))


@pytest.fixture
def small_repo(repo, tmp_path) -> TraceRepository:
    """A private, writable copy of two of the module's traces."""
    for name in ("linear_2", "linear_3"):
        repo.load(name).save(tmp_path / f"{name}.json")
    return TraceRepository(tmp_path)


class TestIncrementalDiscovery:
    def test_unchanged_files_are_not_reparsed(self, small_repo, load_calls, settled):
        first = small_repo.discover()
        assert load_calls == ["linear_2.json", "linear_3.json"]
        second = small_repo.discover()
        assert load_calls == ["linear_2.json", "linear_3.json"]
        assert all(a is b for a, b in zip(first, second))

    def test_rewrite_add_and_delete_are_picked_up(self, small_repo, load_calls, settled):
        before = {record.name: record for record in small_repo.discover()}
        trace = small_repo.load("linear_2")
        trace.metadata["note"] = "rewritten"
        trace.save(small_repo.root / "linear_2.json")
        trace.save(small_repo.root / "added.json")
        (small_repo.root / "linear_3.json").unlink()
        load_calls.clear()
        after = {record.name: record for record in small_repo.discover()}
        assert sorted(load_calls) == ["added.json", "linear_2.json"]
        assert sorted(after) == ["added", "linear_2"]
        assert after["linear_2"].digest == trace.digest() != before["linear_2"].digest
        assert after["added"].digest == trace.digest()

    def test_file_turning_malformed_moves_to_invalid(self, small_repo, load_calls, settled):
        small_repo.discover()
        broken = small_repo.root / "linear_3.json"
        broken.write_text("{ no longer json")
        assert small_repo.names() == ["linear_2"]
        assert "unreadable JSON" in small_repo.invalid[broken]
        load_calls.clear()
        assert small_repo.names() == ["linear_2"]
        assert load_calls == []  # the unchanged invalid file keeps its reason
        assert list(small_repo.invalid) == [broken]
        broken.unlink()
        small_repo.discover()
        assert small_repo.invalid == {}

    def test_recently_changed_file_is_read_again(self, small_repo, load_calls):
        # Just written: a same-size rewrite within one timestamp tick would
        # keep its signature, so the next scan must not trust it.
        small_repo.discover()
        small_repo.discover()
        assert load_calls.count("linear_2.json") == 2

    def test_concurrent_discovery_sees_identical_records(
        self, small_repo, load_calls, settled, monkeypatch
    ):
        # Slow loads make the two scans overlap.
        counted = ExecutionTrace.load.__func__
        monkeypatch.setattr(
            ExecutionTrace, "load",
            classmethod(lambda cls, path: time.sleep(0.02) or counted(cls, path)),
        )
        barrier = threading.Barrier(2)
        results = [None, None]

        def scan(index):
            barrier.wait()
            results[index] = small_repo.discover()

        threads = [threading.Thread(target=scan, args=(index,)) for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results[0] == results[1]
        assert [record.name for record in results[0]] == ["linear_2", "linear_3"]
        assert sorted(load_calls) == ["linear_2.json", "linear_3.json"]

    def test_load_all_reads_every_file(self, small_repo, load_calls, settled):
        small_repo.discover()
        load_calls.clear()
        assert [len(trace) for trace in small_repo.load_all()] == [
            record.num_nodes for record in small_repo.discover()
        ]
        assert load_calls == ["linear_2.json", "linear_3.json"]

    def test_sweep_resolves_named_traces_from_one_discovery(self, repo, monkeypatch):
        scans = []
        discover = repo.discover
        monkeypatch.setattr(repo, "discover", lambda: scans.append(1) or discover())
        records = SweepRunner(repo).records_for(SweepSpec(traces=["linear_4", "linear_2"]))
        assert [record.name for record in records] == ["linear_4", "linear_2"]
        assert len(scans) == 1
        with pytest.raises(KeyError, match="no trace named 'missing'"):
            SweepRunner(repo).records_for(SweepSpec(traces=["linear_2", "missing"]))

    def test_cli_reports_read_each_trace_twice(self, small_repo, load_calls):
        # Freshly written files are read on every scan, so the reports must
        # discover once and then load the records, not re-scan per trace.
        from repro.service.cli import _memory_reports, _profile_traces

        expected = ["linear_2.json"] * 2 + ["linear_3.json"] * 2
        _memory_reports(str(small_repo.root), None, "A100", None)
        assert sorted(load_calls) == expected
        load_calls.clear()
        _profile_traces(str(small_repo.root), None, "A100", 1, 0, True)
        assert sorted(load_calls) == expected


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("abc", ReplayConfig())
        assert cache.get(key) is None
        assert cache.misses == 1
        summary = ReplayResultSummary(iteration_times_us=[42.0], replayed_ops=7)
        cache.put(key, summary, trace_digest="abc", config=ReplayConfig())
        loaded = cache.get(key)
        assert cache.hits == 1
        assert loaded is not None
        assert loaded.mean_iteration_time_us == 42.0
        assert loaded.replayed_ops == 7

    def test_key_depends_on_trace_and_config(self):
        assert cache_key("a", ReplayConfig()) != cache_key("b", ReplayConfig())
        assert cache_key("a", ReplayConfig()) != cache_key("a", ReplayConfig(device="V100"))
        assert cache_key("a", ReplayConfig()) == cache_key("a", ReplayConfig())

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("abc", ReplayConfig())
        cache.root.mkdir(parents=True)
        (cache.root / f"{key}.json").write_text("not json")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", ReplayResultSummary())
        cache.put("k2", ReplayResultSummary())
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Batch replayer
# ----------------------------------------------------------------------
def _jobs_for(repo: TraceRepository, devices=("A100",)) -> list:
    return [
        ReplayJob.from_record(record, ReplayConfig(device=device))
        for record in repo.discover()
        for device in devices
    ]


class TestBatchReplayer:
    def test_two_worker_batch_equals_sequential(self, repo):
        jobs = _jobs_for(repo, devices=("A100", "V100"))
        parallel = BatchReplayer(max_workers=2, backend="process").run(jobs)
        sequential = BatchReplayer(backend="serial").run(jobs)
        self._assert_batches_equal(parallel, sequential)

    def test_process_pool_equals_sequential(self, repo):
        jobs = _jobs_for(repo)[:2]
        parallel = BatchReplayer(max_workers=2, backend="process").run(jobs)
        sequential = BatchReplayer(backend="serial").run(jobs)
        self._assert_batches_equal(parallel, sequential)

    @staticmethod
    def _assert_batches_equal(parallel, sequential):
        assert parallel.error_count == 0 and sequential.error_count == 0
        for par, seq in zip(parallel, sequential):
            assert par.job.label == seq.job.label
            assert par.summary.mean_iteration_time_us == seq.summary.mean_iteration_time_us
            assert par.summary.replayed_ops == seq.summary.replayed_ops
            assert par.summary.sm_utilization_pct == seq.summary.sm_utilization_pct

    def test_failed_job_does_not_abort_batch(self, repo, tmp_path):
        bad = tmp_path / "missing.json"
        jobs = _jobs_for(repo)
        jobs.append(
            ReplayJob(label="bad", trace_path=bad, trace_digest="0" * 64, config=ReplayConfig())
        )
        batch = BatchReplayer().run(jobs)
        assert batch.error_count == 1
        assert batch.replayed_count == len(jobs) - 1
        assert "bad" in batch.errors()

    def test_cache_round_trip_through_batch(self, repo, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs_for(repo)
        first = BatchReplayer(cache=cache).run(jobs)
        assert first.replayed_count == len(jobs) and first.cached_count == 0
        second = BatchReplayer(cache=cache).run(jobs)
        assert second.cached_count == len(jobs) and second.replayed_count == 0
        for a, b in zip(first, second):
            assert a.summary.mean_iteration_time_us == b.summary.mean_iteration_time_us

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            BatchReplayer(backend="gpu")

    def test_only_the_process_backend_has_a_pool_size(self):
        assert BatchReplayer().max_workers is None
        assert BatchReplayer(backend="process").max_workers >= 1

    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda repo: BatchReplayer(max_workers=2),
            lambda repo: SweepRunner(repo, max_workers=2),
            lambda repo: api.sweep(repo, workers=2),
        ],
        ids=["BatchReplayer", "SweepRunner", "api.sweep"],
    )
    def test_pool_size_without_process_backend_rejected(self, repo, entry_point):
        """A pool size under the serial backend is an error, not ignored,
        in the words the CLI uses for ``--workers`` without ``--backend``."""
        message = "workers sizes the process pool; pass backend process too"
        with pytest.raises(ValueError, match=message):
            entry_point(repo)

    def test_modified_trace_fails_instead_of_poisoning_cache(self, repo, tmp_path):
        # Replaying a trace whose file changed after discovery must fail the
        # job (digest mismatch), not cache new content under the old digest.
        record = repo.discover()[0]
        trace = repo.load(record)
        copy_path = tmp_path / "copy.json"
        trace.save(copy_path)
        job = ReplayJob(
            label="stale",
            trace_path=copy_path,
            trace_digest=record.digest,
            config=ReplayConfig(),
        )
        trace.metadata["modified"] = True
        trace.save(copy_path)
        cache = ResultCache(tmp_path / "cache")
        batch = BatchReplayer(cache=cache, backend="serial").run([job])
        assert batch.error_count == 1
        assert "digest mismatch" in batch.results[0].error
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class TestSweep:
    def test_expansion_is_cross_product(self):
        spec = SweepSpec(
            devices=("A100", "V100"),
            axes={"power_limit_w": [None, 250.0], "comm_delay_scale": [1.0, 2.0]},
        )
        points = spec.expand()
        assert len(points) == 2 * 2 * 2
        labels = [label for label, _ in points]
        assert len(set(labels)) == len(labels)
        assert any("power_limit_w=250.0" in label for label in labels)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown ReplayConfig fields"):
            SweepSpec(axes={"not_a_knob": [1]}).expand()

    def test_sweep_runs_all_grid_points(self, repo, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(repo, cache=cache)
        result = runner.run(SweepSpec(devices=("A100", "NewPlatform")))
        assert result.total_jobs == 3 * 2
        assert result.batch.error_count == 0
        devices = aggregate_by_device(result.batch)
        assert set(devices) == {"A100", "NewPlatform"}

    def test_second_sweep_does_not_re_replay(self, repo, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        spec = SweepSpec(devices=("A100", "V100"))
        first = SweepRunner(repo, cache=cache).run(spec)
        assert first.batch.replayed_count == 6

        # Any attempt to replay on the second sweep is a test failure: the
        # whole sweep must be served from the cache.
        import repro.service.batch as batch_module

        def _no_replay(*args, **kwargs):
            raise AssertionError("replay executed despite warm cache")

        monkeypatch.setattr(batch_module, "replay_job", _no_replay)
        second = SweepRunner(repo, cache=cache).run(spec)
        assert second.batch.cached_count == 6
        assert second.batch.replayed_count == 0
        assert second.batch.error_count == 0

    def test_empty_repository_raises(self, tmp_path):
        runner = SweepRunner(TraceRepository(tmp_path / "empty"))
        with pytest.raises(ValueError, match="no traces to sweep"):
            runner.run(SweepSpec())


# ----------------------------------------------------------------------
# Aggregate reporting
# ----------------------------------------------------------------------
class TestAggregateReporting:
    def test_batch_report_lists_every_job(self, repo):
        batch = BatchReplayer(backend="serial").run(_jobs_for(repo))
        report = format_batch_report(batch)
        for record in repo:
            assert f"{record.name}@A100" in report
        assert "replayed" in report

    def test_cache_summary_line(self, repo, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs_for(repo)
        BatchReplayer(cache=cache).run(jobs)
        batch = BatchReplayer(cache=cache).run(jobs)
        assert cache_summary_line(batch) == "3 jobs: 0 replayed, 3 from cache, 0 failed"
