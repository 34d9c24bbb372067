"""What a replay shares with later replays in the same process.

A sweep replays one trace under many configurations, so the process keeps
the inputs a replay computes from the trace file and the config alone:

* the parsed, digest-verified trace of each settled file version
  (``repro.service.repository.read_trace``, behind
  ``repro.service.batch.load_verified``, discovery and
  ``TraceRepository.load``);
* each generated embedding-index payload, read-only, with its content
  token (``repro.core.tensors.index_values`` / ``payload_token``).

Both tables are bounded and are cleared before every test by the autouse
fixture in ``conftest.py``.  What must hold: a served input gives the same
report as a fresh one, a changed file is never served, a shared trace is
never modified by a replay, and a shared payload cannot be written.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import capture_workload
from repro.core import tensors as tensors_module
from repro.core.pipeline import run_replay
from repro.core.replayer import ReplayConfig
from repro.core.tensors import (
    EmbeddingValueConfig,
    TensorManager,
    index_table_stats,
    index_values,
)
from repro.et.schema import ROOT_NODE_ID
from repro.et.trace import ExecutionTrace
from repro.service import repository as repository_module
from repro.service.batch import ReplayJob, TraceChangedError, load_verified, replay_job
from repro.service.repository import TraceRepository, read_trace, trace_table_stats
from repro.torchsim.dtypes import DType
from repro.torchsim.tensor import Tensor
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from tests.conftest import make_small_rm


def _summary_digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary.to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def rm_trace_dict() -> dict:
    """The small RM capture, serialised (each test parses its own copy)."""
    return capture_workload(make_small_rm(), warmup_iterations=0).execution_trace.to_dict()


@pytest.fixture
def rm_file(tmp_path, rm_trace_dict) -> Path:
    return ExecutionTrace.from_dict(rm_trace_dict).save(tmp_path / "rm.json")


@pytest.fixture
def settled(monkeypatch):
    """Treat every file as older than the racy window, so an unchanged
    stat signature alone decides whether the table serves it."""
    monkeypatch.setattr(repository_module, "RACY_WINDOW_NS", float("-inf"))


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


def _rewrite_same_size(path: Path, old: str, new: str) -> None:
    """Rewrite ``path`` in place with ``old`` replaced by the same-length
    ``new``, and move its mtime, so the rewrite changes the stat signature
    even on a filesystem whose timestamps tick coarsely."""
    assert len(old) == len(new)
    before = path.stat()
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000_000))
    assert path.stat().st_size == before.st_size


def _race(target, threads: int = 8) -> None:
    """Run ``target`` on ``threads`` threads released together, with a
    short switch interval so they interleave finely; every thread must
    finish."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(threads)

        def run():
            barrier.wait()
            target()

        workers = [threading.Thread(target=run) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Verified traces
# ----------------------------------------------------------------------
class TestVerifiedTraceTable:
    def test_served_point_equals_a_fresh_load(self, rm_file, settled, load_calls):
        digest = ExecutionTrace.load(rm_file).digest()
        load_calls.clear()
        first = load_verified(rm_file, digest)
        served = load_verified(rm_file, digest)
        assert served is first
        assert load_calls == ["rm.json"]
        job = ReplayJob(label="rm", trace_path=rm_file, trace_digest=digest, config=ReplayConfig())
        from_table = replay_job(job)
        assert from_table.ok
        fresh = run_replay(ExecutionTrace.load(rm_file), config=ReplayConfig(), record_profile=False)
        assert _summary_digest(from_table.summary) == _summary_digest(fresh.summarize())
        assert trace_table_stats() == {"traces": 1, "bytes": rm_file.stat().st_size}

    def test_discovery_and_the_first_point_read_the_file_once(
        self, rm_file, settled, load_calls
    ):
        repository = TraceRepository(rm_file.parent)
        (record,) = repository.discover()
        trace = load_verified(record.path, record.digest)
        assert repository.load(record) is trace
        assert load_calls == ["rm.json"]

    def test_same_size_rewrite_after_caching_raises(self, rm_file, settled, load_calls):
        trace = ExecutionTrace.from_dict(json.loads(rm_file.read_text()))
        trace.metadata["note"] = "aaaa"
        trace.save(rm_file)
        digest = load_verified(rm_file, "").digest()
        assert trace_table_stats()["traces"] == 1
        _rewrite_same_size(rm_file, '"note": "aaaa"', '"note": "bbbb"')
        load_calls.clear()
        with pytest.raises(TraceChangedError, match="digest mismatch"):
            load_verified(rm_file, digest)
        assert load_calls == ["rm.json"]
        # Neither the stale version nor the unexpected one is kept.
        assert trace_table_stats() == {"traces": 0, "bytes": 0}
        with pytest.raises(TraceChangedError):
            load_verified(rm_file, digest)
        assert load_calls == ["rm.json"] * 2

    def test_a_file_inside_the_racy_window_is_read_every_time(self, rm_file, load_calls):
        # Just written: a same-size rewrite within one timestamp tick would
        # keep its signature, so the table must not trust it yet.
        digest = load_verified(rm_file, "").digest()
        assert load_verified(rm_file, digest) is not load_verified(rm_file, digest)
        assert load_calls == ["rm.json"] * 3
        assert trace_table_stats() == {"traces": 0, "bytes": 0}

    def test_an_unexpected_digest_is_never_kept(self, rm_file, settled):
        trace, digest = read_trace(rm_file, "0" * 64)
        assert digest == trace.digest() != "0" * 64
        assert trace_table_stats()["traces"] == 0
        with pytest.raises(TraceChangedError):
            load_verified(rm_file, "0" * 64)

    def test_table_is_bounded_by_file_bytes(self, tmp_path, rm_trace_dict, settled, monkeypatch):
        paths = [
            ExecutionTrace.from_dict(rm_trace_dict).save(tmp_path / f"rm_{index}.json")
            for index in range(3)
        ]
        size = paths[0].stat().st_size
        monkeypatch.setattr(repository_module, "MAX_TRACE_TABLE_BYTES", 2 * size)
        first = read_trace(paths[0])[0]
        read_trace(paths[1])
        assert read_trace(paths[0])[0] is first  # now the most recently read
        read_trace(paths[2])  # evicts paths[1], the least recently read
        assert trace_table_stats() == {"traces": 2, "bytes": 2 * size}
        assert read_trace(paths[0])[0] is first
        monkeypatch.setattr(repository_module, "MAX_TRACE_TABLE_BYTES", size - 1)
        read_trace(paths[1])  # larger than the whole table: never kept
        assert trace_table_stats() == {"traces": 2, "bytes": 2 * size}

    def test_concurrent_reads_keep_the_table_exact(
        self, tmp_path, rm_trace_dict, settled, monkeypatch
    ):
        paths = [
            ExecutionTrace.from_dict(rm_trace_dict).save(tmp_path / f"rm_{index}.json")
            for index in range(3)
        ]
        size = paths[0].stat().st_size
        digest = ExecutionTrace.from_dict(rm_trace_dict).digest()
        monkeypatch.setattr(repository_module, "MAX_TRACE_TABLE_BYTES", 2 * size)
        wrong = []

        def read():
            for index in range(30):
                trace, found = read_trace(paths[index % 3], digest)
                if found != digest or len(trace) != len(rm_trace_dict["nodes"]):
                    wrong.append(index)

        _race(read)
        assert wrong == []
        held = list(repository_module._table.values())
        assert trace_table_stats() == {"traces": len(held), "bytes": len(held) * size}
        assert len(held) <= 2


class TestSharedTraceIsReadOnly:
    def test_replays_leave_a_shared_trace_unchanged(self, rm_file, settled):
        trace = load_verified(rm_file, "")
        digest, serialised = trace.digest(), trace.to_json()
        for config in (ReplayConfig(), ReplayConfig(vectorized=False, iterations=2)):
            assert replay_job(
                ReplayJob(label="rm", trace_path=rm_file, trace_digest=digest, config=config)
            ).ok
        assert load_verified(rm_file, digest) is trace
        assert trace.digest() == digest
        assert trace.to_json() == serialised

    def test_concurrent_index_builds_publish_whole_indexes(self, rm_trace_dict):
        """Eight threads race the first lookups of fresh traces; each sees
        complete indexes (a half-built children map would drop or repeat
        nodes)."""
        reference = ExecutionTrace.from_dict(rm_trace_dict)
        descendants = [node.id for node in reference.descendants(ROOT_NODE_ID)]
        parents = sorted({node.parent for node in reference.nodes})
        children = {parent: [node.id for node in reference.children(parent)] for parent in parents}
        assert len(descendants) == len(reference) - 1  # all but the root
        for _ in range(20):
            trace = ExecutionTrace.from_dict(rm_trace_dict)
            seen = []

            def read(trace=trace, seen=seen):
                seen.append(
                    (
                        [node.id for node in trace.descendants(ROOT_NODE_ID)],
                        [trace.get(node_id).id for node_id in descendants],
                        {p: [n.id for n in trace.children(p)] for p in parents},
                    )
                )

            _race(read)
            assert seen == [(descendants, descendants, children)] * 8


# ----------------------------------------------------------------------
# Index payloads
# ----------------------------------------------------------------------
class TestIndexPayloadTable:
    def test_one_read_only_array_per_config_and_shape(self):
        config = EmbeddingValueConfig(table_size=1000)
        first = index_values(config, 64, (8, 8))
        assert index_values(EmbeddingValueConfig(table_size=1000), 64, (8, 8)) is first
        assert index_values(config, 64, (64,)) is not first
        assert index_values(EmbeddingValueConfig(table_size=999), 64, (8, 8)) is not first
        np.testing.assert_array_equal(first, config.generate(64).reshape(8, 8))
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 7
        with pytest.raises(ValueError, match="read-only"):
            first += 1
        assert index_table_stats() == {"arrays": 3, "bytes": 3 * 64 * 8}

    def test_replays_share_payloads_and_hash_each_once(self, rm_trace_dict, monkeypatch):
        hashed = []
        original = tensors_module._sha1
        monkeypatch.setattr(
            tensors_module, "_sha1", lambda array: hashed.append(array.nbytes) or original(array)
        )
        trace = ExecutionTrace.from_dict(rm_trace_dict)
        first = run_replay(trace, config=ReplayConfig(), record_profile=False)
        assert hashed, "the RM replay fingerprints its index payloads"
        assert len(hashed) == index_table_stats()["arrays"]
        hashed.clear()
        second = run_replay(trace, config=ReplayConfig(), record_profile=False)
        assert hashed == []
        assert _summary_digest(first.summarize()) == _summary_digest(second.summarize())

    def test_tensor_managers_materialize_the_shared_array(self):
        config = EmbeddingValueConfig(table_size=100)
        recorded = Tensor.empty((4, 8), dtype=DType.INT64)
        tensors = [
            TensorManager(embedding_config=config).get_input(
                list(recorded.id), list(recorded.shape), recorded.type_string()
            )
            for _ in range(2)
        ]
        assert tensors[0] is not tensors[1]
        assert tensors[0].data is tensors[1].data
        assert not tensors[0].data.flags.writeable

    def test_table_is_bounded_by_bytes(self, monkeypatch):
        monkeypatch.setattr(tensors_module, "MAX_INDEX_TABLE_BYTES", 2 * 800)
        config = EmbeddingValueConfig(table_size=100)
        first = index_values(config, 100, (100,))
        index_values(config, 100, (10, 10))
        assert index_values(config, 100, (100,)) is first  # now the most recent
        index_values(config, 100, (4, 25))  # evicts (10, 10)
        assert index_table_stats() == {"arrays": 2, "bytes": 1600}
        assert index_values(config, 100, (100,)) is first
        large = index_values(config, 1000, (1000,))  # larger than the table
        assert not large.flags.writeable
        assert index_values(config, 1000, (1000,)) is not large
        assert index_table_stats() == {"arrays": 2, "bytes": 1600}
        # An evicted array keeps its token, computed afresh.
        evicted = index_values(config, 100, (10, 10))
        assert tensors_module.payload_token(evicted) == tensors_module._sha1(evicted)

    def test_concurrent_generation_keeps_the_table_exact(self, monkeypatch):
        monkeypatch.setattr(tensors_module, "MAX_INDEX_TABLE_BYTES", 2 * 800)
        config = EmbeddingValueConfig(table_size=100)
        shapes = [(100,), (10, 10), (4, 25)]
        expected = config.generate(100)
        wrong = []

        def generate():
            for index in range(60):
                array = index_values(config, 100, shapes[index % 3])
                if not np.array_equal(array.reshape(-1), expected) or array.flags.writeable:
                    wrong.append(index)

        _race(generate)
        assert wrong == []
        held = list(tensors_module._index_table.values())
        assert {id(payload.array) for payload in held} == set(tensors_module._by_id)
        assert index_table_stats() == {"arrays": len(held), "bytes": 800 * len(held)}
        assert len(held) <= 2

    def test_scalar_and_vectorized_replays_of_shared_payloads_agree(self, rm_trace_dict):
        trace = ExecutionTrace.from_dict(rm_trace_dict)
        reports = [
            _summary_digest(
                run_replay(trace, config=ReplayConfig(vectorized=vectorized, iterations=3),
                           record_profile=False).summarize()
            )
            for vectorized in (True, False, True)
        ]
        assert reports[0] == reports[1] == reports[2]


def test_param_linear_points_share_one_parsed_trace(tmp_path, settled, load_calls):
    """A serial batch of several points over one settled file reads it once
    (the batch keeps no load table of its own)."""
    from repro.service import BatchReplayer

    workload = ParamLinearWorkload(
        ParamLinearConfig(batch_size=8, num_layers=2, hidden_size=32, input_size=32)
    )
    path = capture_workload(workload, warmup_iterations=0).execution_trace.save(tmp_path / "lin.json")
    (record,) = TraceRepository(tmp_path).discover()
    jobs = [
        ReplayJob.from_record(record, ReplayConfig(power_limit_w=power), label=str(power))
        for power in (None, 300.0, 250.0)
    ]
    batch = BatchReplayer(backend="serial").run(jobs)
    assert batch.error_count == 0 and batch.replayed_count == 3
    assert load_calls == [path.name]
