"""Tests for the replay daemon (repro.daemon).

Covers the full stack bottom-up — job model, fair queue, durable store,
executor, orchestrator, HTTP API — and the subsystem's acceptance
scenarios:

* pause -> snapshot -> daemon restart -> resume produces byte-identical
  results vs an uninterrupted run, for a single-rank sweep AND a 4-rank
  cluster job;
* two clients submitting overlapping sweeps replay each unique
  (trace, config) point exactly once;
* result-cache eviction honours TTL + max-entries without evicting an
  in-flight job's pinned inputs.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Optional

import pytest

from repro.bench.harness import capture_workload
from repro.core import vectorize
from repro.daemon import (
    DAEMON_SCHEMA_VERSION,
    JobQueue,
    JobRecord,
    JobSpec,
    JobStateError,
    JobStore,
    ReplayDaemon,
)
from repro.daemon.client import DaemonClient, DaemonClientError
from repro.daemon import daemon as daemon_module
from repro.daemon.daemon import JobAccessError, TraceRepositories, UnknownJobError
from repro.daemon.executor import InflightRegistry, JobControl, run_sweep_job
from repro.daemon.jobs import TERMINAL_STATES, JobSnapshot
from repro.daemon.server import MAX_BODY_BYTES, DaemonRequestHandler, DaemonServer
from repro.service import TraceRepository
from repro.service.cache import ResultCache
from repro.workloads.ddp import DistributedRunner
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from tests import test_core_reconstruction_and_tensors as rule_tests
from tests.conftest import make_small_rm

WAIT_S = 180.0


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def daemon_repo(tmp_path_factory) -> Path:
    """Two small single-rank traces for sweep jobs."""
    root = tmp_path_factory.mktemp("daemon_traces")
    repo = TraceRepository(root)
    workloads = [
        ParamLinearWorkload(
            ParamLinearConfig(batch_size=8, num_layers=2, hidden_size=32, input_size=32)
        ),
        make_small_rm(),
    ]
    for workload in workloads:
        capture = capture_workload(workload, warmup_iterations=0)
        repo.add(workload.name, capture.execution_trace)
    return root


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory) -> Path:
    """A 4-rank DDP-RM fleet in the on-disk replay-dist format."""
    directory = tmp_path_factory.mktemp("daemon_fleet")
    runner = DistributedRunner(
        lambda rank, world: make_small_rm(rank=rank, world_size=world), world_size=4
    )
    DistributedRunner.save_captures(runner.run(), directory)
    return directory


def sweep_payload(repo: Path, iterations: int = 1, devices=("A100",)) -> dict:
    return {
        "repo": str(repo),
        "traces": None,
        "devices": list(devices),
        "axes": {},
        "base": {"iterations": iterations},
    }


def cluster_payload(fleet: Path, iterations: int = 2) -> dict:
    return {
        "trace_dir": str(fleet),
        "config": {"device": "A100", "iterations": iterations},
    }


def summaries_of(result: dict) -> dict:
    """Per-label replay summaries — the byte-identity comparison surface
    (the ``cached`` flags legitimately differ between runs)."""
    return {row["label"]: row["summary"] for row in result["points"]}


def cache_keys_of(result: dict) -> dict:
    return {row["label"]: row["cache_key"] for row in result["points"]}


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------
class TestJobModel:
    def test_legal_lifecycle(self):
        record = JobRecord(id="j1", owner="alice", spec=JobSpec("sweep"))
        for state in ("running", "pausing", "paused", "queued", "running", "completed"):
            record.transition(state)
        assert record.terminal

    def test_illegal_transition_raises(self):
        record = JobRecord(id="j1", owner="alice", spec=JobSpec("sweep"))
        record.transition("running")
        record.transition("completed")
        with pytest.raises(JobStateError, match="cannot go"):
            record.transition("running")

    @pytest.mark.parametrize("terminal", sorted(TERMINAL_STATES))
    def test_terminal_states_never_leave(self, terminal):
        record = JobRecord(id="j1", owner="alice", spec=JobSpec("cluster"), state=terminal)
        for state in ("queued", "running", "pausing", "paused"):
            with pytest.raises(JobStateError):
                record.transition(state)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec("mapreduce")

    def test_record_round_trips_through_dict(self):
        record = JobRecord(
            id="j2",
            owner="bob",
            spec=JobSpec("sweep", {"repo": "traces/"}),
            priority=3,
            seq=7,
            snapshot=JobSnapshot("sweep", pending_label="rm@A100").to_dict(),
        )
        clone = JobRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_schema_version_gate(self):
        data = JobRecord(id="j3", owner="a", spec=JobSpec("sweep")).to_dict()
        data["schema_version"] = DAEMON_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            JobRecord.from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [("id", ["x"]), ("id", None), ("owner", 7), ("priority", True), ("seq", False)],
    )
    def test_record_fields_are_typed(self, field, value):
        data = JobRecord(id="j4", owner="a", spec=JobSpec("sweep")).to_dict()
        data[field] = value
        with pytest.raises(ValueError, match="id/owner|priority/seq"):
            JobRecord.from_dict(data)

    def test_snapshots_are_versioned(self):
        for kind in ("sweep", "cluster"):
            assert JobSnapshot(kind).to_dict()["schema_version"] == DAEMON_SCHEMA_VERSION


# ----------------------------------------------------------------------
# Fair queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_priority_dispatches_first(self):
        queue = JobQueue()
        queue.push(0, "alice", 1, "low")
        queue.push(5, "bob", 2, "high")
        assert queue.pop(timeout=0.1) == "high"
        assert queue.pop(timeout=0.1) == "low"

    def test_round_robin_across_owners(self):
        """A burst from one tenant cannot bury an interleaved tenant:
        dispatch alternates owners no matter the submission order."""
        queue = JobQueue()
        for seq in range(1, 4):
            queue.push(0, "alice", seq, f"a{seq}")
        queue.push(0, "bob", 4, "b1")
        order = [queue.pop(timeout=0.1) for _ in range(4)]
        assert order == ["a1", "b1", "a2", "a3"]

    def test_fifo_within_one_owner(self):
        queue = JobQueue()
        for seq in (3, 1, 2):
            queue.push(0, "alice", seq, f"a{seq}")
        assert [queue.pop(timeout=0.1) for _ in range(3)] == ["a1", "a2", "a3"]

    def test_remove_drops_a_queued_job(self):
        queue = JobQueue()
        queue.push(0, "alice", 1, "a1")
        assert queue.remove("a1") is True
        assert queue.remove("a1") is False
        assert queue.pop(timeout=0.05) is None

    def test_close_wakes_blocked_pop(self):
        queue = JobQueue()
        results = []
        thread = threading.Thread(target=lambda: results.append(queue.pop()))
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert results == [None]
        with pytest.raises(RuntimeError, match="closed"):
            queue.push(0, "alice", 1, "a1")

    def test_depth_by_owner(self):
        queue = JobQueue()
        queue.push(0, "alice", 1, "a1")
        queue.push(0, "alice", 2, "a2")
        queue.push(0, "bob", 3, "b1")
        assert queue.depth_by_owner() == {"alice": 2, "bob": 1}
        assert len(queue) == 3


# ----------------------------------------------------------------------
# Durable store
# ----------------------------------------------------------------------
class TestJobStore:
    def make_record(self, job_id: str, state: str = "queued", seq: int = 1) -> JobRecord:
        return JobRecord(
            id=job_id, owner="alice", spec=JobSpec("sweep", {"repo": "r"}),
            state=state, seq=seq,
        )

    def test_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record = self.make_record("j1")
        store.save(record)
        assert store.load("j1").to_dict() == record.to_dict()

    def test_recover_requeues_interrupted_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(self.make_record("j1", state="running", seq=1))
        store.save(self.make_record("j2", state="pausing", seq=2))
        store.save(self.make_record("j3", state="paused", seq=3))
        store.save(self.make_record("j4", state="completed", seq=4))
        states = {record.id: record.state for record in store.recover()}
        assert states == {
            "j1": "queued", "j2": "queued", "j3": "paused", "j4": "completed",
        }
        # The repair is itself durable.
        assert store.load("j1").state == "queued"

    def test_corrupt_files_do_not_wedge_startup(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(self.make_record("j1"))
        (store.jobs_dir / "torn.json").write_text("{ not json")
        assert [record.id for record in store.load_all()] == ["j1"]

    def test_wrong_shape_records_do_not_wedge_startup(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(self.make_record("j1", state="running"))
        bad_spec = self.make_record("j2").to_dict()
        bad_spec["spec"] = [1]
        bad_seq = self.make_record("j3").to_dict()
        bad_seq["seq"] = [1]
        bad_state = self.make_record("j4").to_dict()
        bad_state["state"] = ["running"]
        (store.jobs_dir / "list.json").write_text("[]")
        (store.jobs_dir / "j2.json").write_text(json.dumps(bad_spec))
        (store.jobs_dir / "j3.json").write_text(json.dumps(bad_seq))
        (store.jobs_dir / "j4.json").write_text(json.dumps(bad_state))
        assert [record.id for record in store.recover()] == ["j1"]
        assert store.load("j2") is None

    def test_unhashable_record_id_does_not_crash_daemon_startup(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(self.make_record("j1"))
        bad = self.make_record("j2").to_dict()
        bad["id"] = ["x"]
        (store.jobs_dir / "j2.json").write_text(json.dumps(bad))
        daemon = ReplayDaemon(tmp_path, workers=1)  # never started
        assert [record.id for record in daemon.list_jobs("alice")] == ["j1"]

    def test_record_naming_another_path_is_not_requeued(self, tmp_path):
        state_dir = tmp_path / "state"
        store = JobStore(state_dir)
        escape = self.make_record("../../escape", state="running").to_dict()
        store.jobs_dir.mkdir(parents=True)
        (store.jobs_dir / "j1.json").write_text(json.dumps(escape))
        assert store.recover() == []
        assert store.load("j1") is None
        assert sorted(path.name for path in tmp_path.rglob("*.json")) == ["j1.json"]

    def test_recover_deletes_tmp_files_of_cut_short_saves(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(self.make_record("j1", state="running"))
        # What a crash between write_text and os.replace leaves behind.
        stale = store.jobs_dir / "j1.tmp-4242"
        stale.write_text('{"id": "j1", "state": "compl')
        (store.jobs_dir / "j2.tmp-77").write_text("")
        assert [record.id for record in store.recover()] == ["j1"]
        assert sorted(path.name for path in store.jobs_dir.iterdir()) == ["j1.json"]
        assert store.load("j1").state == "queued"

    def test_crash_between_write_and_replace_keeps_the_previous_record(
        self, tmp_path, monkeypatch
    ):
        """The documented guarantee: a process crash mid-save leaves the
        previous record, and the next start cleans up the tmp file."""
        store = JobStore(tmp_path)
        store.save(self.make_record("j1", state="queued"))

        def killed(src, dst):
            raise OSError("process killed before os.replace")

        monkeypatch.setattr("repro.daemon.store.os.replace", killed)
        with pytest.raises(OSError):
            store.save(self.make_record("j1", state="completed"))
        monkeypatch.undo()
        assert store.load("j1").state == "queued"
        assert len(list(store.jobs_dir.glob("j1.tmp-*"))) == 1
        JobStore(tmp_path).recover()
        assert sorted(path.name for path in store.jobs_dir.iterdir()) == ["j1.json"]

    def test_records_are_compact_and_indented_ones_still_recover(self, tmp_path):
        """Records are one line of sorted compact JSON; a record an older
        daemon wrote indented loads, recovers and is rewritten compact."""
        store = JobStore(tmp_path)
        store.save(self.make_record("j1"))
        text = (store.jobs_dir / "j1.json").read_text()
        assert "\n" not in text and ": " not in text
        assert text == json.dumps(json.loads(text), separators=(",", ":"), sort_keys=True)
        old = self.make_record("j2", state="running", seq=2)
        (store.jobs_dir / "j2.json").write_text(json.dumps(old.to_dict(), indent=2, sort_keys=True))
        assert [record.id for record in store.recover()] == ["j1", "j2"]
        recovered = store.load("j2")
        assert recovered.state == "queued"
        assert recovered.to_dict() == dict(old.to_dict(), state="queued")
        assert "\n" not in (store.jobs_dir / "j2.json").read_text()

    def test_first_save_creates_the_jobs_directory(self, tmp_path):
        store = JobStore(tmp_path / "state")
        assert not store.jobs_dir.exists()
        store.save(self.make_record("j1"))
        assert store.load("j1") is not None

    def test_load_all_orders_by_submission(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(self.make_record("jz", seq=2))
        store.save(self.make_record("ja", seq=1))
        assert [record.id for record in store.load_all()] == ["ja", "jz"]
        assert store.max_seq() == 2


# ----------------------------------------------------------------------
# Daemon lifecycle (in-process)
# ----------------------------------------------------------------------
class TestDaemonLifecycle:
    def test_sweep_job_completes(self, tmp_path, daemon_repo):
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
            final = daemon.wait(record.id, timeout=WAIT_S)
            assert final.state == "completed"
            result = daemon.result(record.id)
            assert result["kind"] == "sweep"
            assert result["total"] == 2
            assert {row["label"] for row in result["points"]} == {
                "param_linear@A100", "rm@A100",
            }

    def test_failed_job_carries_error_details(self, tmp_path):
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit(
                "alice", JobSpec("sweep", {"repo": str(tmp_path / "missing")})
            )
            final = daemon.wait(record.id, timeout=WAIT_S)
            assert final.state == "failed"
            assert final.error_type
            assert final.traceback
            with pytest.raises(JobStateError, match="no result"):
                daemon.result(record.id)

    def test_typo_in_the_sweep_base_fails_the_job(self, tmp_path, daemon_repo):
        payload = sweep_payload(daemon_repo)
        payload["base"] = {"iteratons": 5}
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", payload))
            final = daemon.wait(record.id, timeout=WAIT_S)
            assert final.state == "failed"
            assert final.error_type == "ValueError"
            assert "'iteratons'" in final.error

    def test_cancel_queued_job_never_runs(self, tmp_path, daemon_repo):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)  # not started
        record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
        daemon.cancel(record.id)
        assert daemon.get(record.id).state == "cancelled"
        assert len(daemon.queue) == 0

    def test_pause_queued_then_resume(self, tmp_path, daemon_repo):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)  # not started
        record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
        daemon.pause(record.id)
        assert daemon.get(record.id).state == "paused"
        daemon.resume(record.id)
        assert daemon.get(record.id).state == "queued"

    def test_illegal_operations_raise(self, tmp_path, daemon_repo):
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
            daemon.wait(record.id, timeout=WAIT_S)
            with pytest.raises(JobStateError):
                daemon.resume(record.id)
            with pytest.raises(JobStateError):
                daemon.pause(record.id)
            with pytest.raises(UnknownJobError):
                daemon.get("no-such-job")

    def test_ownership_is_enforced(self, tmp_path, daemon_repo):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
        with pytest.raises(JobAccessError):
            daemon.get(record.id, owner="bob")
        with pytest.raises(JobAccessError):
            daemon.cancel(record.id, owner="bob")
        assert daemon.get(record.id, owner="alice").id == record.id
        with pytest.raises(ValueError, match="owner"):
            daemon.submit("", JobSpec("sweep", sweep_payload(daemon_repo)))

    def test_health_payload(self, tmp_path, daemon_repo):
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
            daemon.wait(record.id, timeout=WAIT_S)
            health = daemon.health()
            assert health["schema_version"] == DAEMON_SCHEMA_VERSION
            assert health["jobs"] == {"completed": 1}
            assert health["workers"] == 1
            assert "entries" in health["cache"]
            assert health["repositories"] == {"open": 1, "invalid": 0}

    def test_health_counts_invalid_files_skipped(self, tmp_path, daemon_repo):
        root = tmp_path / "traces"
        root.mkdir()
        for source in sorted(daemon_repo.glob("*.json")):
            (root / source.name).write_bytes(source.read_bytes())
        (root / "notes.json").write_text('{"kernels": []}')
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", sweep_payload(root)))
            assert daemon.wait(record.id, timeout=WAIT_S).state == "completed"
            assert daemon.health()["repositories"] == {"open": 1, "invalid": 1}


# ----------------------------------------------------------------------
# Shared trace repositories
# ----------------------------------------------------------------------
class TestSharedRepositories:
    def test_sweep_after_rewrite_prices_the_new_digest(self, tmp_path, daemon_repo):
        """A trace rewritten between two jobs is re-read: the second job keys
        on the new digest and replays exactly what a fresh serial batch
        replay of the rewritten file does."""
        from repro.daemon.executor import expand_sweep_points
        from repro.et.trace import ExecutionTrace
        from repro.service import BatchReplayer

        root = tmp_path / "traces"
        trace = ExecutionTrace.load(daemon_repo / "param_linear.json")
        trace.save(root / "param_linear.json")
        payload = sweep_payload(root)
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            first = daemon.submit("alice", JobSpec("sweep", payload))
            assert daemon.wait(first.id, timeout=WAIT_S).state == "completed"
            trace.metadata["note"] = "rewritten"
            trace.save(root / "param_linear.json")
            second = daemon.submit("alice", JobSpec("sweep", payload))
            assert daemon.wait(second.id, timeout=WAIT_S).state == "completed"
            (row,) = daemon.result(second.id)["points"]
            assert daemon.repositories.stats()["open"] == 1
        assert row["cache_key"] != daemon.result(first.id)["points"][0]["cache_key"]
        assert not row["cached"]
        (fresh,) = list(BatchReplayer(backend="serial").run(expand_sweep_points(payload)))
        assert row["cache_key"] == fresh.job.cache_key
        assert json.dumps(row["summary"], sort_keys=True) == json.dumps(
            fresh.summary.to_dict(), sort_keys=True
        )

    def test_cluster_job_after_rewrite_replays_the_new_content(self, tmp_path):
        """A fleet job loads its ranks from the shared repository for its
        ``trace_dir``; a rank file rewritten between two jobs is read again,
        and the second job replays exactly what a fresh co-replay of the
        rewritten fleet does."""
        from repro.cluster import ClusterReplayer
        from repro.core.replayer import ReplayConfig
        from repro.workloads.rm import RMConfig, RMWorkload

        def save_fleet(batch_size: int) -> None:
            def make(rank, world):
                config = RMConfig(
                    batch_size=batch_size, num_tables=4, rows_per_table=1_000,
                    embedding_dim=16, pooling_factor=2, bottom_mlp=(32, 16),
                    top_mlp=(32, 16),
                )
                return RMWorkload(config, rank=rank, world_size=world)

            DistributedRunner.save_captures(
                DistributedRunner(make, world_size=2).run(), root
            )

        root = tmp_path / "fleet"
        save_fleet(batch_size=8)
        payload = cluster_payload(root, iterations=1)
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            first = daemon.submit("alice", JobSpec("cluster", payload))
            assert daemon.wait(first.id, timeout=WAIT_S).state == "completed"
            save_fleet(batch_size=32)
            second = daemon.submit("alice", JobSpec("cluster", payload))
            assert daemon.wait(second.id, timeout=WAIT_S).state == "completed"
            assert daemon.repositories.stats()["open"] == 1
            first_report = daemon.result(first.id)["report"]
            second_report = daemon.result(second.id)["report"]
        fresh = ClusterReplayer(ReplayConfig.from_dict(payload["config"])).replay(
            ClusterReplayer.load_fleet(root)
        )
        assert second_report != first_report
        assert json.dumps(second_report, sort_keys=True) == json.dumps(
            fresh.to_dict(), sort_keys=True
        )

    def test_map_is_bounded_by_recent_use(self, tmp_path):
        from repro.daemon.daemon import MAX_REPOSITORIES

        roots = [tmp_path / f"root{index}" for index in range(MAX_REPOSITORIES + 2)]
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            first = daemon.repositories.get(roots[0])
            for root in roots[1:]:
                record = daemon.submit("alice", JobSpec("sweep", sweep_payload(root)))
                # An empty root fails its job ("no traces to sweep") after
                # discovery, which is all this test needs.
                assert daemon.wait(record.id, timeout=WAIT_S).state == "failed"
            assert daemon.health()["repositories"]["open"] == MAX_REPOSITORIES
            assert daemon.repositories.get(roots[-1]) is daemon.repositories.get(roots[-1])
            assert daemon.repositories.get(roots[0]) is not first  # evicted, reopened


# ----------------------------------------------------------------------
# Bounded job records and the shared per-process tables
# ----------------------------------------------------------------------
class TestBoundedRecords:
    """Unfinished records stay in memory, plus the newest
    ``MAX_TERMINAL_RECORDS`` finished ones; the rest are read back from the
    store, and every count stays exact."""

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "MAX_TERMINAL_RECORDS", 2)

    @staticmethod
    def _cancelled_jobs(daemon, owners):
        records = [daemon.submit(owner, JobSpec("sweep", {"repo": "unused"})) for owner in owners]
        for record in records:
            daemon.cancel(record.id)
        return records

    def test_counts_and_listing_stay_exact_past_the_bound(self, tmp_path):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)  # not started
        records = self._cancelled_jobs(daemon, ["alice", "bob", "alice", "alice"])
        paused = daemon.submit("bob", JobSpec("sweep", {"repo": "unused"}))
        daemon.pause(paused.id)
        queued = daemon.submit("alice", JobSpec("sweep", {"repo": "unused"}))
        assert set(daemon._records) == {records[2].id, records[3].id, paused.id, queued.id}
        listed = daemon.list_jobs()
        assert [record.id for record in listed] == [record.id for record in records] + [
            paused.id, queued.id,
        ]
        assert [record.state for record in listed] == ["cancelled"] * 4 + ["paused", "queued"]
        assert [record.id for record in daemon.list_jobs("bob")] == [records[1].id, paused.id]
        health = daemon.health()
        assert health["jobs"] == {"cancelled": 4, "paused": 1, "queued": 1}
        assert health["jobs_by_state"]["cancelled"] == 4
        assert health["job_records"] == {"in_memory": 4, "on_disk": 6}

    def test_recovery_keeps_the_same_bound(self, tmp_path):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        records = self._cancelled_jobs(daemon, ["alice"] * 5)
        restarted = ReplayDaemon(tmp_path / "state", workers=1)
        assert set(restarted._records) == {records[3].id, records[4].id}
        assert restarted.health()["job_records"] == {"in_memory": 2, "on_disk": 5}
        assert restarted.health()["jobs"] == {"cancelled": 5}
        assert [record.id for record in restarted.list_jobs()] == [r.id for r in records]
        assert restarted.get(records[0].id).state == "cancelled"

    def test_evicted_jobs_are_served_from_the_store(self, tmp_path, daemon_repo, monkeypatch):
        payload = sweep_payload(daemon_repo)
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            first = daemon.submit("alice", JobSpec("sweep", payload))
            assert daemon.wait(first.id, timeout=WAIT_S).state == "completed"
            expected = first.to_dict()
            for _ in range(2):  # cache hits, which push the first job out
                later = daemon.submit("alice", JobSpec("sweep", payload))
                assert daemon.wait(later.id, timeout=WAIT_S).state == "completed"
            assert first.id not in daemon._records
            loads = []
            load = daemon.store.load
            monkeypatch.setattr(daemon.store, "load", lambda job_id: loads.append(job_id) or load(job_id))
            assert daemon.get(first.id, owner="alice").to_dict() == expected
            assert daemon.wait(first.id, timeout=1.0).to_dict() == expected
            assert daemon.result(first.id) == expected["result"]
            assert daemon.analysis(first.id, owner="alice")["kind"] == "sweep"
            with pytest.raises(JobStateError, match="no snapshot"):
                daemon.snapshot_of(first.id)
            with pytest.raises(JobStateError):
                daemon.pause(first.id)
            with pytest.raises(JobAccessError):
                daemon.get(first.id, owner="bob")
            assert loads == [first.id] * 7
            assert daemon.health()["jobs"] == {"completed": 3}

    def test_malformed_ids_never_reach_the_store(self, tmp_path, monkeypatch):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        loads = []
        monkeypatch.setattr(daemon.store, "load", lambda job_id: loads.append(job_id))
        for job_id in ("..", "../jobs/x", "%2e%2e", "A" * 12, "0" * 13, "a" * 4096, "", "0" * 11 + "/"):
            with pytest.raises(UnknownJobError):
                daemon.get(job_id)
        assert loads == []
        with pytest.raises(UnknownJobError):
            daemon.get("0123456789ab")
        assert loads == ["0123456789ab"]


class TestSharedTables:
    def test_two_workers_on_one_shared_trace_equal_serial_reports(
        self, tmp_path, daemon_repo, monkeypatch
    ):
        """Both workers replay the same parsed trace object at once; every
        point equals a serial batch replay of a fresh load."""
        from repro.daemon.executor import expand_sweep_points
        from repro.service import BatchReplayer
        from repro.service import repository as repository_module
        from repro.service.repository import clear_trace_table

        monkeypatch.setattr(repository_module, "RACY_WINDOW_NS", float("-inf"))
        payloads = [
            dict(sweep_payload(daemon_repo), traces=["rm"], axes={"power_limit_w": [power]})
            for power in (400.0, 300.0, 250.0, 200.0, 150.0, 100.0)
        ]
        with ReplayDaemon(tmp_path / "state", workers=2) as daemon:
            records = [daemon.submit("alice", JobSpec("sweep", payload)) for payload in payloads]
            finals = [daemon.wait(record.id, timeout=WAIT_S) for record in records]
            health = daemon.health()
        assert [final.state for final in finals] == ["completed"] * len(payloads)
        assert health["verified_traces"]["traces"] == 2  # discovery read both
        assert health["index_payloads"]["arrays"] >= 1
        assert health["programs"]["environments"] == 1
        clear_trace_table()
        vectorize.clear()
        for final, payload in zip(finals, payloads):
            (serial,) = list(BatchReplayer(backend="serial").run(expand_sweep_points(payload)))
            (row,) = final.result["points"]
            assert row["summary"] == serial.summary.to_dict()


# ----------------------------------------------------------------------
# Acceptance: pause -> snapshot -> restart -> resume, byte-identical
# ----------------------------------------------------------------------
class TestPauseResumeAcrossRestart:
    @staticmethod
    def _pause_asap(daemon, job_id):
        """Wait for the job to start, then request a pause; returns the
        resting record.  Tolerates the pause losing the race to the
        finish line (the caller asserts byte-identity either way)."""
        daemon.wait(
            job_id, timeout=WAIT_S,
            until=("running", "completed", "failed", "cancelled"),
        )
        try:
            daemon.pause(job_id)
        except JobStateError:
            pass  # already terminal
        return daemon.wait(job_id, timeout=WAIT_S)

    def test_sweep_resume_is_byte_identical(self, tmp_path, daemon_repo):
        payload = sweep_payload(daemon_repo, iterations=30, devices=("A100", "V100"))

        reference = ReplayDaemon(tmp_path / "ref", workers=1)
        with reference:
            ref_record = reference.submit("alice", JobSpec("sweep", payload))
            assert reference.wait(ref_record.id, timeout=WAIT_S).state == "completed"
        ref_result = ref_record.result

        state_dir = tmp_path / "state"
        vectorize.clear()  # the interrupted run learns cold too
        first = ReplayDaemon(state_dir, workers=1)
        with first:
            record = first.submit("alice", JobSpec("sweep", payload))
            paused = self._pause_asap(first, record.id)
        if paused.state == "paused":  # the pause can lose the race to the finish
            snapshot = first.snapshot_of(record.id)
            assert snapshot["schema_version"] == DAEMON_SCHEMA_VERSION
            assert snapshot["kind"] == "sweep"

            vectorize.clear()
            second = ReplayDaemon(state_dir, workers=1)  # fresh process, same disk
            recovered = second.get(record.id)
            assert recovered.state == "paused"
            assert recovered.snapshot == paused.snapshot
            with second:
                second.resume(record.id)
                final = second.wait(
                    record.id, timeout=WAIT_S, until=("completed", "failed")
                )
        else:
            final = paused
        assert final.state == "completed"
        assert summaries_of(final.result) == summaries_of(ref_result)
        assert cache_keys_of(final.result) == cache_keys_of(ref_result)

    def test_cluster_resume_is_byte_identical(self, tmp_path, fleet_dir):
        payload = cluster_payload(fleet_dir, iterations=8)

        reference = ReplayDaemon(tmp_path / "ref", workers=1)
        with reference:
            ref_record = reference.submit("alice", JobSpec("cluster", payload))
            assert reference.wait(ref_record.id, timeout=WAIT_S).state == "completed"

        state_dir = tmp_path / "state"
        vectorize.clear()  # the interrupted run learns cold too
        first = ReplayDaemon(state_dir, workers=1)
        with first:
            record = first.submit("alice", JobSpec("cluster", payload))
            paused = self._pause_asap(first, record.id)
        if paused.state == "paused":
            assert paused.snapshot["kind"] == "cluster"
            assert paused.snapshot["completed"] == {}
            assert paused.snapshot["pending_label"] is None
            assert paused.snapshot["checkpoint"] is not None
            vectorize.clear()  # a fresh process resumes cold
            second = ReplayDaemon(state_dir, workers=1)
            with second:
                second.resume(record.id)
                final = second.wait(
                    record.id, timeout=WAIT_S, until=("completed", "failed")
                )
        else:
            final = paused
        assert final.state == "completed"
        # Fleet replay is deterministic: the resumed report is the
        # uninterrupted report, byte for byte.
        assert final.result["report"] == ref_record.result["report"]

    def test_restart_requeues_mid_flight_jobs(self, tmp_path, daemon_repo):
        """A daemon killed without pausing: the job restarts from queued."""
        state_dir = tmp_path / "state"
        first = ReplayDaemon(state_dir, workers=1)  # never started
        record = first.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
        first.get(record.id).transition("running")  # simulate dying mid-run
        first.store.save(first.get(record.id))

        second = ReplayDaemon(state_dir, workers=1)
        assert second.get(record.id).state == "queued"
        with second:
            final = second.wait(record.id, timeout=WAIT_S)
        assert final.state == "completed"


# ----------------------------------------------------------------------
# Sweep points: a pause lands inside the replay; one cache lookup each
# ----------------------------------------------------------------------
class _PauseFromPoll(JobControl):
    """A job control whose ``interrupted()`` turns true on its k-th poll
    (a counter, never a timer, so the pause cannot lose a race)."""

    def __init__(self, k: Optional[int] = None) -> None:
        super().__init__()
        self.k = k
        self.polls = 0

    def interrupted(self) -> bool:
        self.polls += 1
        return self.k is not None and self.polls >= self.k


class TestSweepPoints:
    @staticmethod
    def _run(payload: dict, control: JobControl, snapshot=None):
        vectorize.clear()  # every run learns its programs cold
        record = JobRecord(
            id="j1", owner="alice", spec=JobSpec("sweep", payload), snapshot=snapshot
        )
        return run_sweep_job(record, control, None, InflightRegistry(), TraceRepositories())

    def test_pause_at_every_poll_resumes_byte_identical(self, daemon_repo):
        payload = sweep_payload(daemon_repo, iterations=2, devices=("A100", "V100"))
        payload["traces"] = ["param_linear"]
        payload["base"]["warmup_iterations"] = 1
        counter = _PauseFromPoll()
        status, reference = self._run(payload, counter)
        assert status == "completed"
        in_point = 0
        for k in range(1, counter.polls + 1):
            status, value = self._run(payload, _PauseFromPoll(k))
            if status == "paused":
                in_point += value["checkpoint"] is not None
                status, value = self._run(payload, _PauseFromPoll(), snapshot=value)
            assert status == "completed", k
            assert json.dumps(value, sort_keys=True) == json.dumps(reference, sort_keys=True), k
        # Two points of one warm-up and two measured iterations: each pauses
        # at its two inner iteration boundaries.
        assert in_point == 4

    def test_fresh_points_miss_once_and_repeats_hit(self, tmp_path, daemon_repo):
        """One cache lookup per point: ``/health`` counts one miss per
        fresh point and one hit per repeated one."""
        payload = sweep_payload(daemon_repo, devices=("A100", "V100"))
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            for expected in ((4, 0), (4, 4)):
                record = daemon.submit("alice", JobSpec("sweep", payload))
                assert daemon.wait(record.id, timeout=WAIT_S).state == "completed"
                cache = daemon.health()["cache"]
                assert (cache["misses"], cache["hits"]) == expected


# ----------------------------------------------------------------------
# Snapshots that cannot be resumed fail their job, never a worker
# ----------------------------------------------------------------------
def _resume_with_snapshot(state_dir: Path, spec: JobSpec, snapshot) -> ReplayDaemon:
    """A daemon whose store holds one paused job ``j1`` carrying
    ``snapshot`` as persisted on disk."""
    JobStore(state_dir).save(
        JobRecord(id="j1", owner="alice", spec=spec, state="paused", seq=1, snapshot=snapshot)
    )
    return ReplayDaemon(state_dir, workers=1)


def _fleet_checkpoint(trace_dir: Path) -> dict:
    """A fleet checkpoint paused at the first rank boundary, as a dict."""
    from repro.cluster import ClusterReplayer
    from repro.core.pipeline import ReplayPaused
    from repro.core.replayer import ReplayConfig

    config = ReplayConfig.from_dict(cluster_payload(trace_dir)["config"])
    with pytest.raises(ReplayPaused) as paused:
        ClusterReplayer(config).replay(
            ClusterReplayer.load_fleet(trace_dir), pause_check=lambda: True
        )
    return paused.value.checkpoint.to_dict()


class TestUnresumableSnapshots:
    @pytest.mark.parametrize(
        "snapshot",
        [
            ["not", "an", "object"],
            {"kind": "sweep", "completed": 5},
            {"kind": "sweep", "completed": {"rm@A100": {"cache_key": 7, "summary": {}}}},
        ],
        ids=["non-object", "non-object-completed", "malformed-point"],
    )
    def test_malformed_snapshot_fails_the_job_and_the_worker_serves_on(
        self, tmp_path, daemon_repo, snapshot
    ):
        spec = JobSpec("sweep", sweep_payload(daemon_repo))
        with _resume_with_snapshot(tmp_path / "state", spec, snapshot) as daemon:
            daemon.resume("j1")
            final = daemon.wait("j1", timeout=WAIT_S)
            assert final.state == "failed"
            assert final.error_type == "CheckpointError"
            after = daemon.submit("alice", spec)
            assert daemon.wait(after.id, timeout=WAIT_S).state == "completed"
            assert all(thread.is_alive() for thread in daemon.executor._threads)

    @pytest.mark.parametrize("tamper", ["fingerprint", "other-fleet"])
    def test_fleet_checkpoint_mismatch_fails_the_job(
        self, tmp_path, fleet_dir, tamper
    ):
        checkpoint = _fleet_checkpoint(fleet_dir)
        if tamper == "fingerprint":
            checkpoint["clock_fingerprint"][1] += 1  # the next ET node id
        else:
            other = tmp_path / "other_fleet"
            runner = DistributedRunner(
                lambda rank, world: make_small_rm(rank=rank, world_size=world), world_size=2
            )
            DistributedRunner.save_captures(runner.run(), other)
            checkpoint = _fleet_checkpoint(other)
        spec = JobSpec("cluster", cluster_payload(fleet_dir))
        snapshot = {"kind": "cluster", "checkpoint": checkpoint}
        with _resume_with_snapshot(tmp_path / "state", spec, snapshot) as daemon:
            daemon.resume("j1")
            final = daemon.wait("j1", timeout=WAIT_S)
        assert final.state == "failed"
        assert final.error_type == "CheckpointError"

    def test_fleet_snapshot_without_checkpoint_reruns_from_scratch(
        self, tmp_path, fleet_dir
    ):
        """A fleet snapshot written before fleets checkpointed held only a
        scheduler step count; it resumes as a fresh run."""
        spec = JobSpec("cluster", cluster_payload(fleet_dir))
        snapshot = {"schema_version": DAEMON_SCHEMA_VERSION, "kind": "cluster", "steps": 17}
        with _resume_with_snapshot(tmp_path / "state", spec, snapshot) as daemon:
            daemon.resume("j1")
            final = daemon.wait("j1", timeout=WAIT_S)
            fresh = daemon.submit("alice", spec)
            reference = daemon.wait(fresh.id, timeout=WAIT_S)
        assert final.state == reference.state == "completed"
        assert final.result["report"] == reference.result["report"]


# ----------------------------------------------------------------------
# Acceptance: exactly-once pricing across tenants
# ----------------------------------------------------------------------
class TestExactlyOncePricing:
    def test_overlapping_sweeps_price_each_point_once(self, tmp_path, daemon_repo):
        payload = sweep_payload(daemon_repo, iterations=2, devices=("A100", "V100"))
        with ReplayDaemon(tmp_path / "state", workers=2) as daemon:
            alice = daemon.submit("alice", JobSpec("sweep", payload))
            bob = daemon.submit("bob", JobSpec("sweep", payload))
            final_a = daemon.wait(alice.id, timeout=WAIT_S)
            final_b = daemon.wait(bob.id, timeout=WAIT_S)
            assert final_a.state == final_b.state == "completed"
            # Identical grids -> identical summaries for both tenants...
            assert summaries_of(final_a.result) == summaries_of(final_b.result)
            # ...and each unique (trace, config) point replayed exactly once
            # across BOTH jobs: 4 unique points, 4 replays total.
            replayed = final_a.result["replayed"] + final_b.result["replayed"]
            unique = len({row["cache_key"] for row in final_a.result["points"]})
            assert unique == 4
            assert replayed == unique
            assert daemon.cache.stats()["entries"] == unique


# ----------------------------------------------------------------------
# Acceptance: bounded cache never evicts an in-flight job's inputs
# ----------------------------------------------------------------------
class TestCacheEvictionUnderDaemon:
    def test_ttl_and_max_entries_respect_pins(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=1, ttl_s=0.05)
        from repro.core.replayer import ReplayResultSummary

        def summary(total):
            return ReplayResultSummary(iteration_times_us=[float(total)], replayed_ops=1)

        cache.put("pinned", summary(1.0))
        cache.pin("pinned")
        time.sleep(0.1)  # both entries are past the TTL...
        cache.put("victim", summary(2.0))
        cache.evict()
        # ...but only the unpinned one goes (TTL), and max_entries=1 is
        # satisfied without touching the pinned key.
        assert cache.get("pinned") is not None
        assert cache.get("victim") is None
        cache.unpin("pinned")
        time.sleep(0.1)
        cache.evict()
        assert cache.get("pinned") is None

    def test_tight_cache_job_still_completes(self, tmp_path, daemon_repo):
        """max_entries=1 with a 2-point job: pins keep every in-flight
        input resident, and the job completes with correct results."""
        with ReplayDaemon(
            tmp_path / "state", cache_max_entries=1, workers=1
        ) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
            final = daemon.wait(record.id, timeout=WAIT_S)
            assert final.state == "completed"
            assert final.result["total"] == 2
            assert all(row["summary"] for row in final.result["points"])
            daemon.cache.evict()
            assert daemon.cache.stats()["entries"] <= 1


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
class TestHttpApi:
    @pytest.fixture()
    def server(self, tmp_path, daemon_repo):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        with DaemonServer(daemon, port=0) as running:
            yield running

    def test_submit_run_result_over_http(self, server, daemon_repo):
        client = DaemonClient(server.url, client_id="alice")
        job = client.submit("sweep", sweep_payload(daemon_repo))
        assert job["state"] == "queued"
        assert job["owner"] == "alice"
        final = client.wait(job["id"], timeout=WAIT_S)
        assert final["state"] == "completed"
        assert final["has_result"] is True
        result = client.result(job["id"])
        assert result["schema_version"] == DAEMON_SCHEMA_VERSION
        assert result["result"]["total"] == 2

    def test_ownership_maps_to_403(self, server, daemon_repo):
        alice = DaemonClient(server.url, client_id="alice")
        bob = DaemonClient(server.url, client_id="bob")
        job = alice.submit("sweep", sweep_payload(daemon_repo))
        with pytest.raises(DaemonClientError) as error:
            bob.status(job["id"])
        assert error.value.status == 403
        with pytest.raises(DaemonClientError) as error:
            bob.cancel(job["id"])
        assert error.value.status == 403

    def test_listing_is_scoped_to_the_caller(self, server, daemon_repo):
        alice = DaemonClient(server.url, client_id="alice")
        bob = DaemonClient(server.url, client_id="bob")
        alice.submit("sweep", sweep_payload(daemon_repo))
        bob.submit("sweep", sweep_payload(daemon_repo))
        assert {job["owner"] for job in alice.list_jobs()["jobs"]} == {"alice"}
        everyone = alice.list_jobs(all_owners=True)["jobs"]
        assert {job["owner"] for job in everyone} == {"alice", "bob"}

    def test_unknown_job_maps_to_404(self, server):
        client = DaemonClient(server.url, client_id="alice")
        with pytest.raises(DaemonClientError) as error:
            client.status("no-such-job")
        assert error.value.status == 404
        with pytest.raises(DaemonClientError) as error:
            client.pause("no-such-job")
        assert error.value.status == 404

    @pytest.mark.parametrize(
        "path",
        [
            "/jobs/..",
            "/jobs/../result",
            "/jobs/..%2f..%2fstate",
            "/jobs/%2e%2e",
            "/jobs/%2e%2e/snapshot",
            "/jobs/" + "0" * 12 + "%2f..",
            "/jobs/" + "a" * 4096,
            "/jobs/0123456789ab",
        ],
    )
    def test_malformed_or_unknown_ids_map_to_404_without_a_store_read(
        self, server, path, monkeypatch
    ):
        loads = []
        load = server.daemon.store.load
        monkeypatch.setattr(
            server.daemon.store, "load", lambda job_id: loads.append(job_id) or load(job_id)
        )
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.request("GET", path, headers={"X-Repro-Client": "alice"})
            response = connection.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["error_type"] in ("UnknownJobError", "LookupError")
        finally:
            connection.close()
        assert loads == (["0123456789ab"] if path == "/jobs/0123456789ab" else [])

    def test_evicted_job_of_another_client_maps_to_403(self, server, daemon_repo, monkeypatch):
        monkeypatch.setattr(daemon_module, "MAX_TERMINAL_RECORDS", 1)
        alice = DaemonClient(server.url, client_id="alice")
        bob = DaemonClient(server.url, client_id="bob")
        first = alice.submit("sweep", sweep_payload(daemon_repo))
        alice.wait(first["id"], timeout=WAIT_S)
        second = alice.submit("sweep", sweep_payload(daemon_repo))
        alice.wait(second["id"], timeout=WAIT_S)
        assert first["id"] not in server.daemon._records
        for request in (bob.status, bob.result, bob.cancel):
            with pytest.raises(DaemonClientError) as error:
                request(first["id"])
            assert error.value.status == 403
        assert alice.status(first["id"])["state"] == "completed"
        assert alice.result(first["id"])["result"]["total"] == 2
        assert [job["id"] for job in alice.list_jobs()["jobs"]] == [first["id"], second["id"]]

    def test_illegal_state_maps_to_400(self, server, daemon_repo):
        client = DaemonClient(server.url, client_id="alice")
        job = client.submit("sweep", sweep_payload(daemon_repo))
        client.wait(job["id"], timeout=WAIT_S)
        with pytest.raises(DaemonClientError) as error:
            client.resume(job["id"])
        assert error.value.status == 400
        with pytest.raises(DaemonClientError) as error:
            client.snapshot(job["id"])
        assert error.value.status == 400

    def test_malformed_submit_maps_to_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=b"{ not json",
            method="POST",
            headers={"X-Repro-Client": "alice", "Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=10)
        assert error.value.code == 400
        with pytest.raises(DaemonClientError) as error:
            DaemonClient(server.url).submit("mapreduce", {})
        assert error.value.status == 400

    @staticmethod
    def _post_declaring(server, length: str):
        """POST /jobs declaring ``Content-Length: length`` but sending no
        body; returns (status, JSON payload, Connection header)."""
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("X-Repro-Client", "alice")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            return response.status, json.loads(response.read()), response.getheader("Connection")
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
    def test_bad_content_length_maps_to_400(self, server, length):
        status, payload, connection = self._post_declaring(server, length)
        assert status == 400
        assert payload["error_type"] == "BadContentLengthError"
        assert connection == "close"
        assert DaemonClient(server.url).health()["schema_version"] == DAEMON_SCHEMA_VERSION

    def test_oversized_body_maps_to_413_before_reading(self, server):
        # No body follows the header: a server that tried to read the
        # declared bytes would stall until the client's timeout.
        status, payload, connection = self._post_declaring(server, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert payload["error_type"] == "BodyTooLargeError"
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert connection == "close"
        assert DaemonClient(server.url).health()["schema_version"] == DAEMON_SCHEMA_VERSION

    @staticmethod
    def _open_partial_submit(server, declared: int, body: bytes) -> socket.socket:
        """A raw connection that POSTs /jobs declaring ``declared`` body
        bytes and sends only ``body``."""
        connection = socket.create_connection(server.address, timeout=10)
        connection.sendall(
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nX-Repro-Client: alice\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {declared}\r\n\r\n".encode()
            + body
        )
        return connection

    @staticmethod
    def _count_accepts(server, monkeypatch) -> list:
        """A list that gains one entry per connection the server accepts."""
        accepts: list = []
        process_request = server.httpd.process_request
        monkeypatch.setattr(
            server.httpd,
            "process_request",
            lambda request, address: accepts.append(address) or process_request(request, address),
        )
        return accepts

    @staticmethod
    def _request_threads() -> int:
        return sum(
            "process_request_thread" in thread.name for thread in threading.enumerate()
        )

    def test_stalled_clients_release_their_threads(self, server, monkeypatch):
        """Clients that stop sending mid-body hold a handler thread only
        until the read timeout; the daemon stays healthy meanwhile."""
        assert 0 < DaemonRequestHandler.timeout <= 60
        monkeypatch.setattr(DaemonRequestHandler, "timeout", 0.5)
        stalled = [self._open_partial_submit(server, 100, b'{"sp') for _ in range(5)]
        try:
            deadline = time.monotonic() + 10
            while self._request_threads() < 5 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert self._request_threads() >= 5
            assert DaemonClient(server.url).health()["schema_version"] == DAEMON_SCHEMA_VERSION
            for connection in stalled:
                # Dropped without a reply once the timeout passes.
                assert connection.recv(1024) == b""
            while self._request_threads() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert self._request_threads() == 0
            assert DaemonClient(server.url).health()["schema_version"] == DAEMON_SCHEMA_VERSION
            assert server.daemon.list_jobs(None) == []
        finally:
            for connection in stalled:
                connection.close()

    def test_client_disconnecting_mid_body_creates_no_job(self, server, daemon_repo, capsys):
        """A body cut short by the client's close is not a request: even a
        complete job spec in the bytes that did arrive submits nothing, and
        the server answers nothing and logs no traceback."""
        body = json.dumps({"spec": {"kind": "sweep", "payload": sweep_payload(daemon_repo)}})
        connection = self._open_partial_submit(server, len(body) + 10, body.encode())
        try:
            connection.shutdown(socket.SHUT_WR)
            assert connection.recv(1024) == b""
        finally:
            connection.close()
        assert DaemonClient(server.url).health()["schema_version"] == DAEMON_SCHEMA_VERSION
        assert server.daemon.list_jobs(None) == []
        assert "Traceback" not in capsys.readouterr().err

    def test_internal_error_maps_to_500_and_the_connection_serves_on(
        self, server, monkeypatch
    ):
        """An error no route maps is a JSON 500 with its traceback logged
        once; the connection carries the client's next request."""
        from repro.daemon.server import ACCESS_LOGGER_NAME
        from repro.telemetry import get_logger

        def broken(owner=None):
            raise RuntimeError("queue is closed")

        accepts = self._count_accepts(server, monkeypatch)
        monkeypatch.setattr(server.daemon, "list_jobs", broken)
        stream = io.StringIO()
        get_logger(ACCESS_LOGGER_NAME, stream=stream)
        try:
            client = DaemonClient(server.url, client_id="alice")
            with pytest.raises(DaemonClientError) as error:
                client.list_jobs()
            assert error.value.status == 500
            assert error.value.error_type == "RuntimeError"
            assert error.value.message == "queue is closed"
            assert client.health()["schema_version"] == DAEMON_SCHEMA_VERSION
        finally:
            get_logger(ACCESS_LOGGER_NAME, stream=sys.stderr)
        assert len(accepts) == 1
        assert stream.getvalue().count("Traceback") == 1

    def test_metrics_report_the_per_process_tables(self, server, daemon_repo):
        """On an idle daemon every table gauge equals its /health number."""
        client = DaemonClient(server.url, client_id="alice")
        job = client.submit("sweep", sweep_payload(daemon_repo))
        assert client.wait(job["id"], timeout=WAIT_S)["state"] == "completed"
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        health = client.health()
        samples = dict(
            line.split(" ") for line in text.splitlines() if not line.startswith("#")
        )
        expected = {
            "repro_verified_traces": health["verified_traces"]["traces"],
            "repro_verified_trace_bytes": health["verified_traces"]["bytes"],
            "repro_index_payloads": health["index_payloads"]["arrays"],
            "repro_index_payload_bytes": health["index_payloads"]["bytes"],
            "repro_program_environments": health["programs"]["environments"],
            "repro_programs": health["programs"]["programs"],
            "repro_job_records_in_memory": health["job_records"]["in_memory"],
            "repro_job_records_on_disk": health["job_records"]["on_disk"],
        }
        assert {name: float(samples[name]) for name in expected} == expected
        assert expected["repro_job_records_on_disk"] == 1
        assert expected["repro_programs"] > 0

    def test_health_endpoint(self, server):
        health = DaemonClient(server.url).health()
        assert health["schema_version"] == DAEMON_SCHEMA_VERSION
        assert "cache" in health and "queue_depth" in health

    def test_unknown_route_maps_to_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{server.url}/nope", timeout=10)
        assert error.value.code == 404


class TestConnections:
    """Each client thread keeps one connection alive across requests."""

    @pytest.fixture()
    def server(self, tmp_path):
        with DaemonServer(ReplayDaemon(tmp_path / "state", workers=1), port=0) as running:
            yield running

    _count_accepts = staticmethod(TestHttpApi._count_accepts)
    _request_threads = staticmethod(TestHttpApi._request_threads)

    def test_requests_of_one_client_share_one_connection(self, server, daemon_repo, monkeypatch):
        accepts = self._count_accepts(server, monkeypatch)
        with DaemonClient(server.url, client_id="alice") as client:
            job = client.submit("sweep", sweep_payload(daemon_repo))
            client.wait(job["id"], timeout=WAIT_S, poll_s=0.01)
            client.result(job["id"])
            client.list_jobs()
            for _ in range(5):
                client.health()
        assert len(accepts) == 1

    def test_each_thread_gets_its_own_connection(self, server, monkeypatch):
        accepts = self._count_accepts(server, monkeypatch)
        client = DaemonClient(server.url)
        threads = [
            threading.Thread(target=lambda: [client.health() for _ in range(3)])
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        client.health()
        assert len(accepts) == 4
        client.close()

    def test_connection_the_server_timed_out_is_replaced(self, server, daemon_repo, monkeypatch):
        """An idle connection the server closed is noticed before reuse, so
        a submit across it reaches the daemon exactly once."""
        accepts = self._count_accepts(server, monkeypatch)
        monkeypatch.setattr(DaemonRequestHandler, "timeout", 0.2)
        client = DaemonClient(server.url, client_id="alice")
        client.health()
        deadline = time.monotonic() + 10
        while self._request_threads() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert self._request_threads() == 0  # the server dropped the idle connection
        job = client.submit("sweep", sweep_payload(daemon_repo))
        assert len(accepts) == 2
        assert [record.id for record in server.daemon.list_jobs(None)] == [job["id"]]
        client.close()

    def test_client_recovers_after_a_413_closes_its_connection(self, server, monkeypatch):
        from repro.daemon import server as server_module

        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 16)
        client = DaemonClient(server.url, client_id="alice")
        with pytest.raises(DaemonClientError) as error:
            client.submit("sweep", {"repo": "r"})
        assert error.value.status == 413
        assert error.value.error_type == "BodyTooLargeError"
        assert client.health()["schema_version"] == DAEMON_SCHEMA_VERSION
        assert server.daemon.list_jobs(None) == []

    def test_a_body_no_route_reads_closes_the_connection(self, server):
        """Left unread, the body would be parsed as the connection's next
        request; the reply closes the connection instead."""
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.request("POST", "/jobs/0123456789ab/pause", body=b'{"x": 1}')
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
            connection.request("GET", "/health")  # reconnects
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["schema_version"] == DAEMON_SCHEMA_VERSION
        finally:
            connection.close()

    def test_interim_100_continue_is_sent_before_the_body(self, server):
        """Replies are buffered, but a client that waits for ``100
        Continue`` before sending its body gets it at once."""
        body = b'{"spec": {"kind": "mapreduce", "payload": {}}}'
        connection = socket.create_connection(server.address, timeout=10)
        try:
            connection.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\nX-Repro-Client: alice\r\n"
                b"Expect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            connection.settimeout(2)
            assert connection.recv(1024) == b"HTTP/1.1 100 Continue\r\n\r\n"
            connection.sendall(body)
            assert connection.recv(4096).startswith(b"HTTP/1.1 400 ")
        finally:
            connection.close()

    def test_stop_ends_every_connection(self, tmp_path):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        server = DaemonServer(daemon, port=0)
        server.start()
        client = DaemonClient(server.url)
        try:
            client.health()
            assert self._request_threads() == 1
        finally:
            server.stop()
        assert self._request_threads() == 0
        with pytest.raises(DaemonClientError) as error:
            client.health()
        assert error.value.status == 0

    def test_kept_alive_requests_do_not_wait_for_delayed_acks(self, server):
        """A reply split over two sends with Nagle on waits about 40 ms for
        the client's delayed ACK; 20 requests must take far less than 20
        such waits."""
        client = DaemonClient(server.url, client_id="alice")
        client.health()
        start = time.perf_counter()
        for _ in range(10):
            client.health()
            client.list_jobs()
        assert time.perf_counter() - start < 20 * 0.040 / 2
        client.close()


class TestDaemonUrlopenRule:
    """``scripts/check_deprecated_usage.py`` keeps ``urlopen(`` out of the
    package, so no client opens a connection per request."""

    _find_offenders = staticmethod(rule_tests.TestReconstructionCacheBypassRule._find_offenders)
    _write = staticmethod(rule_tests.TestReconstructionCacheBypassRule._write)

    def test_repo_is_clean(self):
        offenders = self._find_offenders(Path(__file__).resolve().parents[1])
        assert "daemon-urlopen" not in offenders

    def test_flags_urlopen_calls_in_the_package(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/daemon/client.py",
            "with urllib.request.urlopen(request, timeout=5) as response:\n",
        )
        self._write(tmp_path, "src/repro/service/cli.py", "body = urlopen(url).read()\n")
        offenders = self._find_offenders(tmp_path)
        assert len(offenders["daemon-urlopen"]) == 2

    def test_tests_and_prose_pass(self, tmp_path):
        self._write(tmp_path, "tests/test_x.py", "urllib.request.urlopen(url)\n")
        self._write(tmp_path, "src/repro/daemon/client.py", '"""Never calls urlopen."""\n')
        assert "daemon-urlopen" not in self._find_offenders(tmp_path)


# ----------------------------------------------------------------------
# Client CLI (through the real argparse surface)
# ----------------------------------------------------------------------
class TestDaemonCli:
    def test_submit_wait_status_result(self, tmp_path, daemon_repo, capsys):
        from repro.service.cli import main

        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        with DaemonServer(daemon, port=0) as server:
            args = ["--url", server.url, "--client", "alice"]
            code = main(
                ["submit", "sweep", "--repo", str(daemon_repo), *args, "--wait"]
            )
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            assert payload["state"] == "completed"

            assert main(["status", *args, payload["id"]]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["state"] == "completed"

            assert main(["result", *args, payload["id"]]) == 0
            result = json.loads(capsys.readouterr().out)
            assert result["result"]["total"] == 2

            assert main(["status", *args]) == 0
            listing = json.loads(capsys.readouterr().out)
            assert len(listing["jobs"]) == 1

    def test_client_error_is_reported(self, tmp_path, daemon_repo, capsys):
        from repro.service.cli import main

        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        with DaemonServer(daemon, port=0) as server:
            code = main(
                ["result", "--url", server.url, "--client", "alice", "nojob"]
            )
            assert code == 1
            assert "404" in capsys.readouterr().err
