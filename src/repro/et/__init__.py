"""Execution trace (ET) format and tooling.

The execution trace is the central artifact of Mystique: a runtime recording
of a model's operators together with their metadata (schema, input/output
arguments, shapes, dtypes, parent/child relationships), captured at operator
granularity.  This subpackage contains:

* :mod:`~repro.et.schema` — the node schema of Table 2 and argument
  encoding/decoding helpers,
* :mod:`~repro.et.trace` — the trace container and its one load path,
* :mod:`~repro.et.analyzer` — trace statistics, operator-category breakdowns
  and population-weight selection over a trace database,
* :mod:`~repro.et.builder` — preprocessing, validation and composition of
  traces,
* :mod:`~repro.et.comparator` — the similarity measurement used by the
  feedback loop between replayed and original traces.
"""

from repro.et.schema import ETNode, encode_arg, decode_tensor_ref, is_tensor_type, ROOT_NODE_ID
from repro.et.trace import ExecutionTrace
from repro.et.analyzer import ETAnalyzer, CategoryBreakdown, TraceDatabase
from repro.et.builder import ETBuilder
from repro.et.comparator import TraceComparator, SimilarityReport

__all__ = [
    "ETNode",
    "encode_arg",
    "decode_tensor_ref",
    "is_tensor_type",
    "ROOT_NODE_ID",
    "ExecutionTrace",
    "ETAnalyzer",
    "CategoryBreakdown",
    "TraceDatabase",
    "ETBuilder",
    "TraceComparator",
    "SimilarityReport",
]
