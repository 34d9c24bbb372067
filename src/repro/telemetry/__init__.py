"""repro.telemetry — unified tracing, metrics and timeline export.

The package gives every layer of the replay system one observability
surface:

``tracer``
    :class:`Span` / :class:`Tracer` — wall-time *and* virtual-time spans
    with a correlation context (job id, sweep point, rank) that nests
    across threads.  A disabled tracer records nothing and costs one
    attribute read per call site.

``hook``
    :class:`TelemetryHook` — a :class:`~repro.core.pipeline.ReplayHook`
    and the only code that turns pipeline stage boundaries into spans
    (on-CPU segments under the cluster scheduler).  It rides the execute
    loop's per-pass ``context.op_observers()`` fast path, so replays
    without telemetry keep the zero-overhead guarantee and byte-identical
    results/digests.

``profile``
    :class:`ProfileHook` — a :class:`TelemetryHook` that adds the
    replay engine's per-operator host wall time, measured throughput and
    an opt-in atexit summary, aggregated into a versioned
    :class:`ProfileReport` whose ``stage_wall_s`` is the sum of the
    hook's own stage spans.

``metrics``
    :class:`MetricsRegistry` — counters, gauges and histograms with a
    versioned snapshot schema and Prometheus text exposition (served by
    the daemon's ``GET /metrics``).

``export``
    Chrome-trace/Perfetto JSON export: wall-time spans become host
    lanes, virtual-time slices become per-rank Gantt lanes
    (compute / comms / exposed-comm / stall), written by
    ``python -m repro replay-dist --trace-out`` and
    ``session.export_trace()``.

``logging``
    :func:`get_logger` — structured JSON-lines logging that stamps the
    tracer's current correlation scope onto every record (used by the
    daemon's HTTP access log).
"""

from repro.telemetry.tracer import (
    TELEMETRY_SCHEMA_VERSION,
    Span,
    Tracer,
)
from repro.telemetry.hook import TelemetryHook
from repro.telemetry.profile import (
    PROFILE_SCHEMA_VERSION,
    OpProfile,
    ProfileHook,
    ProfileReport,
)
from repro.telemetry.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.export import (
    record_cluster_timeline,
    record_replay_timeline,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.logging import JsonLineFormatter, get_logger

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "TelemetryHook",
    "PROFILE_SCHEMA_VERSION",
    "OpProfile",
    "ProfileHook",
    "ProfileReport",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_replay_timeline",
    "record_cluster_timeline",
    "to_chrome_trace",
    "write_chrome_trace",
    "JsonLineFormatter",
    "get_logger",
]
