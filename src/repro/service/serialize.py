"""The one JSON serializer behind every CLI subcommand.

Each ``python -m repro`` subcommand supports ``--json`` for machine-
readable output; historically every command hand-rolled its own payload
dict inline, which drifted (and made adding a field a five-place edit).
This module centralises the payload builders: one function per payload
shape assembled here, all routed through :func:`to_jsonable` — which
understands the project's ``to_dict`` convention, dataclasses, paths and
mappings — and one :func:`dumps` for the actual rendering.  An object
that already carries its versioned shape (a ``ClusterReport``, the
insights reports, a ``Tracer``, the daemon's health dict) is passed to
:func:`dumps` as it is.

Keep the *shapes* stable: scripts parse them.  Adding keys is fine;
renaming or removing them is a breaking change to the CLI contract.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serialisable primitives.

    Resolution order: primitives pass through; objects exposing
    ``to_dict()`` (the project-wide convention) use it; dataclasses fall
    back to their field dict; mappings and sequences recurse; ``Path``
    becomes a string; anything else falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "to_dict") and callable(value.to_dict):
        return to_jsonable(value.to_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    return str(value)


def dumps(payload: Any, indent: int = 2) -> str:
    """Render a payload exactly the way every subcommand prints JSON."""
    return json.dumps(to_jsonable(payload), indent=indent)


def dumps_compact(payload: Any) -> str:
    """Single-line rendering for JSON-lines stores (no trailing newline)."""
    return json.dumps(to_jsonable(payload), separators=(",", ":"), sort_keys=True)


# ----------------------------------------------------------------------
# Payload builders (one per subcommand output shape)
# ----------------------------------------------------------------------
def trace_list_payload(repository) -> Dict[str, Any]:
    """``list-traces``: discovered trace records plus skipped files."""
    records = repository.discover()
    return {
        "traces": [
            {
                "name": record.name,
                "path": str(record.path),
                "digest": record.digest,
                "nodes": record.num_nodes,
                "operators": record.num_operators,
                "workload": record.workload,
                "world_size": record.world_size,
            }
            for record in records
        ],
        "invalid": {str(path): reason for path, reason in sorted(repository.invalid.items())},
    }


def batch_payload(batch, memory_reports: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """``replay`` / ``sweep``: per-job rows plus batch accounting (and the
    per-trace memory section when ``--memory`` ran)."""
    payload: Dict[str, Any] = {
        "jobs": [
            {
                "label": job_result.job.label,
                "trace": job_result.job.trace_name,
                "device": job_result.job.config.device,
                "cached": job_result.cached,
                "error": job_result.error,
                "error_type": job_result.error_type,
                "traceback": job_result.traceback,
                "summary": job_result.summary.to_dict() if job_result.summary else None,
            }
            for job_result in batch
        ],
        "replayed": batch.replayed_count,
        "cached": batch.cached_count,
        "failed": batch.error_count,
    }
    if memory_reports is not None:
        payload["memory"] = {
            name: report.summary_dict() for name, report in memory_reports.items()
        }
    return payload


def memory_payload(
    reports: Mapping[str, Any], include_timeline: bool = False
) -> Dict[str, Any]:
    """``memory-report``: one full memory report per trace."""
    return {
        "reports": {
            name: report.to_dict(include_timeline=include_timeline)
            for name, report in reports.items()
        },
        "oom": sorted(name for name, report in reports.items() if not report.fits),
    }


def profile_payload(reports: Mapping[str, Any]) -> Dict[str, Any]:
    """``profile``: one :class:`~repro.telemetry.ProfileReport` per trace.

    The payload carries the profiling schema version once at the top level
    (every report in one payload shares it) so consumers can gate parsing.
    """
    from repro.telemetry import PROFILE_SCHEMA_VERSION

    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "reports": {name: report.to_dict() for name, report in reports.items()},
    }


def version_payload(version: str) -> Dict[str, Any]:
    """``version``: the package version."""
    return {"package": "repro", "version": version}


# ----------------------------------------------------------------------
# Daemon payloads (REST API bodies and their CLI mirrors)
# ----------------------------------------------------------------------
def job_payload(record) -> Dict[str, Any]:
    """One job as the daemon's status endpoint serves it.

    This is the :class:`~repro.daemon.jobs.JobRecord` dict minus the bulky
    ``result``/``snapshot`` bodies (those have their own endpoints), plus
    presence flags so clients know whether fetching them will succeed.
    """
    from repro.daemon.jobs import DAEMON_SCHEMA_VERSION

    data = record.to_dict()
    return {
        "schema_version": DAEMON_SCHEMA_VERSION,
        "id": data["id"],
        "owner": data["owner"],
        "kind": data["spec"]["kind"],
        "state": data["state"],
        "priority": data["priority"],
        "seq": data["seq"],
        "error": data["error"],
        "error_type": data["error_type"],
        "traceback": data["traceback"],
        "has_result": data["result"] is not None,
        "has_snapshot": data["snapshot"] is not None,
    }


def job_list_payload(records) -> Dict[str, Any]:
    """``GET /jobs``: the caller's jobs in submission order."""
    from repro.daemon.jobs import DAEMON_SCHEMA_VERSION

    return {
        "schema_version": DAEMON_SCHEMA_VERSION,
        "jobs": [job_payload(record) for record in records],
    }


def job_result_payload(record) -> Dict[str, Any]:
    """``GET /jobs/<id>/result``: the completed job's result body."""
    from repro.daemon.jobs import DAEMON_SCHEMA_VERSION

    return {
        "schema_version": DAEMON_SCHEMA_VERSION,
        "id": record.id,
        "kind": record.spec.kind,
        "result": record.result,
    }


def snapshot_payload(record) -> Dict[str, Any]:
    """``GET /jobs/<id>/snapshot``: the paused job's resume snapshot
    (already versioned by ``JobSnapshot.to_dict``)."""
    from repro.daemon.jobs import DAEMON_SCHEMA_VERSION

    return {
        "schema_version": DAEMON_SCHEMA_VERSION,
        "id": record.id,
        "kind": record.spec.kind,
        "state": record.state,
        "snapshot": record.snapshot,
    }


def job_analysis_payload(record, analysis: Mapping[str, Any]) -> Dict[str, Any]:
    """``GET /jobs/<id>/analysis``: job identity plus its insights dict."""
    from repro.daemon.jobs import DAEMON_SCHEMA_VERSION

    return {
        "schema_version": DAEMON_SCHEMA_VERSION,
        "id": record.id,
        "kind": record.spec.kind,
        "analysis": dict(analysis),
    }
