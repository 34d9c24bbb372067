"""Property-based tests (hypothesis) for the daemon's persisted shapes.

A job spec, a job record, a job snapshot and a replay checkpoint are read
back from disk or from a request body, so each ``from_dict`` must either
accept its input (and the accepted value must survive ``to_dict`` -> JSON
-> ``from_dict`` unchanged) or raise that shape's typed error:
``ValueError`` for ``JobSpec``/``JobRecord``, :class:`CheckpointError`
for ``JobSnapshot``/``ReplayCheckpoint``.  Anything else (a ``KeyError``,
``TypeError``, ``AttributeError``...) is a bug this suite is here to catch.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import CheckpointError, ReplayCheckpoint
from repro.daemon.jobs import JOB_KINDS, JOB_STATES, JobRecord, JobSnapshot, JobSpec

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Standard JSON values.  NaN is left out: JSON has no NaN, and a NaN that
#: survived a round-trip would still not compare equal to itself.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
json_objects = st.dictionaries(st.text(max_size=8), json_values, max_size=4)


@st.composite
def job_spec_dicts(draw):
    return JobSpec(draw(st.sampled_from(JOB_KINDS)), draw(json_objects)).to_dict()


@st.composite
def job_record_dicts(draw):
    return JobRecord(
        id=draw(st.text(max_size=12)),
        owner=draw(st.text(max_size=8)),
        spec=JobSpec.from_dict(draw(job_spec_dicts())),
        priority=draw(st.integers()),
        state=draw(st.sampled_from(JOB_STATES)),
        seq=draw(st.integers(min_value=0)),
        error=draw(st.none() | st.text(max_size=8)),
        result=draw(st.none() | json_objects),
        snapshot=draw(st.none() | json_objects),
    ).to_dict()


finite_times = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=2**31)


@st.composite
def checkpoint_dicts(draw):
    return ReplayCheckpoint(
        trace_digest=draw(st.text(max_size=64)),
        config_digest=draw(st.text(max_size=64)),
        completed_warmup=draw(counts),
        completed_iterations=draw(counts),
        clock_fingerprint=[
            draw(st.dictionaries(st.text(max_size=4), finite_times, max_size=3)),
            draw(counts),
            draw(counts),
            draw(st.text(max_size=8)),
        ],
        iteration_times_us=draw(st.lists(finite_times, max_size=4)),
        replayed_ops=draw(counts),
        skipped_ops=draw(counts),
        measure_start_us=draw(finite_times),
    ).to_dict()


@st.composite
def completed_points(draw):
    return {
        "cache_key": draw(st.text(max_size=8)),
        "trace": draw(st.text(max_size=8)),
        "device": draw(st.text(max_size=8)),
        "cached": draw(st.booleans()),
        "summary": draw(json_objects),
    }


@st.composite
def job_snapshot_dicts(draw):
    checkpoint = draw(st.none() | checkpoint_dicts())
    return JobSnapshot(
        kind=draw(st.sampled_from(JOB_KINDS)),
        completed=draw(st.dictionaries(st.text(max_size=8), completed_points(), max_size=3)),
        pending_label=draw(st.none() | st.text(max_size=8)),
        checkpoint=None if checkpoint is None else ReplayCheckpoint.from_dict(checkpoint),
    ).to_dict()


@st.composite
def point_mutated_snapshots(draw):
    """A valid snapshot with one field of one completed point replaced or
    deleted."""
    data = draw(job_snapshot_dicts())
    data["completed"].setdefault("point", draw(completed_points()))
    entry = data["completed"][draw(st.sampled_from(sorted(data["completed"])))]
    key = draw(st.sampled_from(sorted(entry)))
    if draw(st.booleans()):
        del entry[key]
    else:
        entry[key] = draw(json_values)
    return data


def mutated(valid):
    """A valid dict with one top-level field replaced or deleted."""

    @st.composite
    def strategy(draw):
        data = draw(valid)
        key = draw(st.sampled_from(sorted(data)))
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(json_values)
        return data

    return strategy()


def _round_trips_or_rejects(shape, error, data) -> None:
    """``shape.from_dict(data)`` raises ``error``, or accepts a value that
    survives ``to_dict`` -> JSON -> ``from_dict`` unchanged; nothing else."""
    try:
        parsed = shape.from_dict(data)
    except error:
        return
    encoded = json.loads(json.dumps(parsed.to_dict()))
    assert shape.from_dict(encoded).to_dict() == parsed.to_dict()


# ----------------------------------------------------------------------
# One class per persisted shape
# ----------------------------------------------------------------------
class TestJobSpecFuzz:
    @given(json_values)
    @settings(max_examples=150, deadline=None)
    def test_random_json_round_trips_or_raises_value_error(self, value):
        _round_trips_or_rejects(JobSpec, ValueError, value)

    @given(job_spec_dicts())
    @settings(max_examples=50, deadline=None)
    def test_valid_specs_round_trip(self, data):
        assert JobSpec.from_dict(data).to_dict() == data

    @given(mutated(job_spec_dicts()))
    @settings(max_examples=100, deadline=None)
    def test_field_mutations_round_trip_or_raise_value_error(self, data):
        _round_trips_or_rejects(JobSpec, ValueError, data)


class TestJobRecordFuzz:
    @given(json_values)
    @settings(max_examples=150, deadline=None)
    def test_random_json_round_trips_or_raises_value_error(self, value):
        _round_trips_or_rejects(JobRecord, ValueError, value)

    @given(job_record_dicts())
    @settings(max_examples=50, deadline=None)
    def test_valid_records_round_trip(self, data):
        assert JobRecord.from_dict(data).to_dict() == data

    @given(mutated(job_record_dicts()))
    @settings(max_examples=150, deadline=None)
    def test_field_mutations_round_trip_or_raise_value_error(self, data):
        _round_trips_or_rejects(JobRecord, ValueError, data)


class TestReplayCheckpointFuzz:
    @given(json_values)
    @settings(max_examples=150, deadline=None)
    def test_random_json_round_trips_or_raises_checkpoint_error(self, value):
        _round_trips_or_rejects(ReplayCheckpoint, CheckpointError, value)

    @given(checkpoint_dicts())
    @settings(max_examples=50, deadline=None)
    def test_valid_checkpoints_round_trip(self, data):
        assert ReplayCheckpoint.from_dict(data).to_dict() == data

    @given(mutated(checkpoint_dicts()))
    @settings(max_examples=150, deadline=None)
    def test_field_mutations_round_trip_or_raise_checkpoint_error(self, data):
        _round_trips_or_rejects(ReplayCheckpoint, CheckpointError, data)


class TestJobSnapshotFuzz:
    @given(json_values)
    @settings(max_examples=150, deadline=None)
    def test_random_json_round_trips_or_raises_checkpoint_error(self, value):
        _round_trips_or_rejects(JobSnapshot, CheckpointError, value)

    @given(job_snapshot_dicts())
    @settings(max_examples=50, deadline=None)
    def test_valid_snapshots_round_trip(self, data):
        assert JobSnapshot.from_dict(data).to_dict() == data

    @given(mutated(job_snapshot_dicts()))
    @settings(max_examples=150, deadline=None)
    def test_field_mutations_round_trip_or_raise_checkpoint_error(self, data):
        _round_trips_or_rejects(JobSnapshot, CheckpointError, data)

    @given(point_mutated_snapshots())
    @settings(max_examples=100, deadline=None)
    def test_point_mutations_round_trip_or_raise_checkpoint_error(self, data):
        _round_trips_or_rejects(JobSnapshot, CheckpointError, data)
