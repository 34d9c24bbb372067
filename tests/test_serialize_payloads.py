"""Schema tests for the daemon payload builders (repro.service.serialize).

The daemon's REST API and the client CLI both speak these payloads, and
scripts parse them — so each shape is pinned here key-for-key: renaming
or removing a key must fail a test, and every daemon payload must carry
the daemon schema version and survive a JSON round-trip unchanged.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.daemon import DAEMON_SCHEMA_VERSION, JobRecord, JobSpec
from repro.daemon.jobs import JobSnapshot
from repro.service import serialize

#: The pinned key sets — the CLI/REST contract.
JOB_KEYS = {
    "schema_version", "id", "owner", "kind", "state", "priority", "seq",
    "error", "error_type", "traceback", "has_result", "has_snapshot",
}
RESULT_KEYS = {"schema_version", "id", "kind", "result"}
SNAPSHOT_KEYS = {"schema_version", "id", "kind", "state", "snapshot"}
BATCH_JOB_KEYS = {
    "label", "trace", "device", "cached", "error", "error_type", "traceback",
    "summary",
}
#: One snapshot shape for sweep and cluster jobs alike.
SNAPSHOT_BODY_KEYS = {
    "schema_version", "kind", "completed", "pending_label", "checkpoint"
}


def roundtrip(payload):
    """Serialize exactly the way the daemon/CLI does, then parse back."""
    return json.loads(serialize.dumps(payload))


def make_record(**overrides) -> JobRecord:
    fields = dict(
        id="abc123def456",
        owner="alice",
        spec=JobSpec("sweep", {"repo": "traces/"}),
        priority=2,
        state="completed",
        seq=5,
        result={"kind": "sweep", "points": [], "total": 0, "cached": 0, "replayed": 0},
    )
    fields.update(overrides)
    return JobRecord(**fields)


class TestJobPayload:
    def test_exact_key_set_and_version(self):
        payload = serialize.job_payload(make_record())
        assert set(payload) == JOB_KEYS
        assert payload["schema_version"] == DAEMON_SCHEMA_VERSION

    def test_round_trip_is_stable(self):
        payload = serialize.job_payload(make_record())
        assert roundtrip(payload) == payload
        assert roundtrip(roundtrip(payload)) == roundtrip(payload)

    def test_presence_flags(self):
        done = serialize.job_payload(make_record())
        assert done["has_result"] is True and done["has_snapshot"] is False
        paused = serialize.job_payload(
            make_record(state="paused", result=None, snapshot=JobSnapshot("sweep").to_dict())
        )
        assert paused["has_result"] is False and paused["has_snapshot"] is True

    def test_error_details_ride_along(self):
        failed = serialize.job_payload(
            make_record(
                state="failed", result=None,
                error="boom", error_type="ValueError", traceback="Traceback ...",
            )
        )
        assert failed["error"] == "boom"
        assert failed["error_type"] == "ValueError"
        assert failed["traceback"].startswith("Traceback")


class TestJobListPayload:
    def test_shape_and_order(self):
        records = [make_record(id="b", seq=2), make_record(id="a", seq=1)]
        payload = serialize.job_list_payload(records)
        assert set(payload) == {"schema_version", "jobs"}
        assert payload["schema_version"] == DAEMON_SCHEMA_VERSION
        assert [job["id"] for job in payload["jobs"]] == ["b", "a"]  # caller's order
        assert all(set(job) == JOB_KEYS for job in payload["jobs"])
        assert roundtrip(payload) == payload


class TestResultAndSnapshotPayloads:
    def test_result_payload(self):
        record = make_record()
        payload = serialize.job_result_payload(record)
        assert set(payload) == RESULT_KEYS
        assert payload["schema_version"] == DAEMON_SCHEMA_VERSION
        assert payload["result"] == record.result
        assert roundtrip(payload) == payload

    def test_sweep_snapshot_payload(self):
        snapshot = JobSnapshot(
            "sweep",
            {"rm@A100": {
                "cache_key": "k", "trace": "rm", "device": "A100", "cached": False,
                "summary": {},
            }},
            "rm@V100",
        ).to_dict()
        assert set(snapshot) == SNAPSHOT_BODY_KEYS
        record = make_record(state="paused", result=None, snapshot=snapshot)
        payload = serialize.snapshot_payload(record)
        assert set(payload) == SNAPSHOT_KEYS
        assert payload["snapshot"] == snapshot
        assert roundtrip(payload) == payload

    def test_fleet_snapshot_payload(self):
        snapshot = JobSnapshot("cluster").to_dict()
        assert set(snapshot) == SNAPSHOT_BODY_KEYS
        assert snapshot["completed"] == {} and snapshot["pending_label"] is None
        record = make_record(
            spec=JobSpec("cluster", {"trace_dir": "fleet/"}),
            state="paused", result=None, snapshot=snapshot,
        )
        payload = serialize.snapshot_payload(record)
        assert payload["kind"] == "cluster"
        assert roundtrip(payload) == payload


#: The pinned /health key set (what a live daemon's health() serves).
HEALTH_KEYS = {
    "schema_version", "version", "jobs", "jobs_by_state", "uptime_s",
    "queue_depth", "queue_by_owner", "workers", "cache", "repositories",
    "telemetry", "verified_traces", "index_payloads", "programs", "job_records",
}


class TestHealthPayload:
    def test_passthrough_and_version(self):
        health = {
            "schema_version": DAEMON_SCHEMA_VERSION,
            "version": "1.0",
            "jobs": {"completed": 2},
            "jobs_by_state": {"queued": 0, "running": 0, "pausing": 0,
                              "paused": 0, "completed": 2, "failed": 0,
                              "cancelled": 0},
            "uptime_s": 12.5,
            "queue_depth": 0,
            "queue_by_owner": {},
            "workers": 2,
            "cache": {"entries": 2},
            "repositories": {"open": 1, "invalid": 0},
            "telemetry": {"repro_jobs_submitted_total": 2.0},
            "verified_traces": {"traces": 1, "bytes": 5120},
            "index_payloads": {"arrays": 2, "bytes": 4096},
            "programs": {"environments": 1, "programs": 40},
            "job_records": {"in_memory": 2, "on_disk": 2},
        }
        assert set(health) == HEALTH_KEYS
        assert roundtrip(health) == health

    def test_live_daemon_health_matches_pinned_keys(self, tmp_path):
        """The real ReplayDaemon.health() serves exactly the pinned shape,
        with jobs_by_state zero-filled over every job state."""
        from repro.daemon import ReplayDaemon
        from repro.daemon.jobs import JOB_STATES

        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        health = daemon.health()
        assert set(health) == HEALTH_KEYS
        assert set(health["jobs_by_state"]) == set(JOB_STATES)
        assert all(count == 0 for count in health["jobs_by_state"].values())
        assert health["uptime_s"] >= 0.0
        assert health["telemetry"]["repro_jobs_submitted_total"] == 0.0
        assert health["repositories"] == {"open": 0, "invalid": 0}
        assert health["verified_traces"] == {"traces": 0, "bytes": 0}
        assert health["index_payloads"] == {"arrays": 0, "bytes": 0}
        assert health["programs"] == {"environments": 0, "programs": 0}
        assert health["job_records"] == {"in_memory": 0, "on_disk": 0}
        assert roundtrip(health) == health


class TestTelemetryPayloads:
    def test_metrics_payload_is_versioned_and_round_trips(self):
        from repro.telemetry import METRICS_SCHEMA_VERSION, MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs").inc(3)
        registry.gauge("depth", "queue depth").set(2)
        registry.histogram("latency_seconds", "latency").observe(0.2)
        payload = registry.snapshot()
        assert set(payload) == {
            "schema_version", "counters", "gauges", "histograms"
        }
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        assert payload["counters"]["jobs_total"] == 3.0
        assert roundtrip(payload) == payload

    def test_trace_payload_is_versioned_and_round_trips(self):
        from repro.telemetry import TELEMETRY_SCHEMA_VERSION, Tracer

        tracer = Tracer()
        with tracer.span("work", "daemon"):
            pass
        tracer.event("mark", "daemon", virtual_us=5.0)
        payload = tracer.to_dict()
        assert set(payload) == {
            "schema_version", "span_count", "event_count", "dropped",
            "spans", "events",
        }
        assert payload["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert payload["span_count"] == 1 and payload["event_count"] == 1
        # The tracer itself renders as its dict: callers pass it to dumps.
        assert roundtrip(tracer) == roundtrip(payload) == payload


class TestBatchPayloadErrorKeys:
    """Satellite: BatchReplayer failures surface type + traceback in
    ``--json`` output, not just the message."""

    class _FakeBatch(list):
        """Just enough of BatchResult's surface for batch_payload."""

        replayed_count = 0
        cached_count = 0

        @property
        def error_count(self):
            return len(self)

    def _batch(self, rows):
        return self._FakeBatch(
            SimpleNamespace(
                job=SimpleNamespace(
                    label=row["label"],
                    trace_name="t",
                    config=SimpleNamespace(device="A100"),
                ),
                cached=False,
                error=row.get("error"),
                error_type=row.get("error_type"),
                traceback=row.get("traceback"),
                summary=None,
            )
            for row in rows
        )

    def test_rows_carry_error_type_and_traceback(self):
        batch = self._batch(
            [{"label": "bad@A100", "error": "boom", "error_type": "KeyError",
              "traceback": "Traceback (most recent call last): ..."}]
        )
        payload = serialize.batch_payload(batch)
        (row,) = payload["jobs"]
        assert set(row) == BATCH_JOB_KEYS
        assert row["error_type"] == "KeyError"
        assert "Traceback" in row["traceback"]

    def test_real_failed_batch_round_trips(self, tmp_path):
        """End-to-end: a genuinely failing job's payload carries the real
        exception class and frames through JSON."""
        from repro.service.batch import BatchReplayer, ReplayJob
        from repro.core.replayer import ReplayConfig

        job = ReplayJob(
            label="missing@NoSuchDevice",
            trace_name="missing",
            trace_path=tmp_path / "missing.json",
            trace_digest="0" * 64,
            config=ReplayConfig(device="NoSuchDevice"),
        )
        batch = BatchReplayer(backend="serial").run([job])
        payload = roundtrip(serialize.batch_payload(batch))
        (row,) = payload["jobs"]
        assert row["error"]
        assert row["error_type"]
        assert row["traceback"] and "Traceback" in row["traceback"]
        assert payload["failed"] == 1
