"""Mystique core: benchmark generation by execution-trace replay.

The pipeline follows Figure 3 of the paper:

1. :mod:`~repro.core.selection` — choose which trace nodes to replay
   (parent/child deduplication, subtrace labels, category filters).
2. :mod:`~repro.core.registry` — the replay-support policy and the
   user-facing custom-operator registration interface.
3. :mod:`~repro.core.reconstruction` — schema parsing, IR building and
   compilation of a callable per operator.
4. :mod:`~repro.core.tensors` — intermediate vs. external tensor
   classification and instantiation.
5. :mod:`~repro.core.comms_replay` — process-group mapping and
   communication-operator replay helpers.
6. :mod:`~repro.core.streams` — operator-to-stream assignment extracted
   from the profiler trace.
7. :mod:`~repro.core.pipeline` — the stage pipeline (``SelectStage`` …
   ``MeasureStage``) composed by a :class:`~repro.core.pipeline.ReplayPipeline`
   that threads a :class:`~repro.core.pipeline.ReplayContext` between stages
   and emits lifecycle events to registered hooks.
8. :mod:`~repro.core.replayer` — the replay configuration and results.
9. :mod:`~repro.core.generator` — emission of a standalone benchmark
   program.
10. :mod:`~repro.core.scaledown` — scaled-down performance emulation
    (Section 7.3).

The public, composable entry point is the :mod:`repro.api` facade.
"""

from repro.core.registry import ReplaySupport
from repro.core.selection import OperatorSelector, SelectionResult, ReplayPlanEntry, CoverageReport
from repro.core.reconstruction import OperatorReconstructor, ReconstructionError
from repro.core.tensors import TensorManager, EmbeddingValueConfig
from repro.core.comms_replay import CommReplayManager
from repro.core.streams import StreamAssigner
from repro.core.replayer import ReplayConfig, ReplayResult, ReplayResultSummary
from repro.core.pipeline import (
    AssignStreamsStage,
    ExecuteStage,
    InitCommsStage,
    MaterializeTensorsStage,
    MeasureStage,
    ReconstructStage,
    ReplayContext,
    ReplayHook,
    ReplayPipeline,
    ReplayPipelineError,
    ReplayStage,
    SelectStage,
    run_replay,
)
from repro.core.generator import BenchmarkGenerator
from repro.core.scaledown import ScaleDownConfig, ScaleDownEmulator

__all__ = [
    "ReplaySupport",
    "ReplayContext",
    "ReplayHook",
    "ReplayPipeline",
    "ReplayPipelineError",
    "ReplayStage",
    "run_replay",
    "SelectStage",
    "ReconstructStage",
    "MaterializeTensorsStage",
    "AssignStreamsStage",
    "InitCommsStage",
    "ExecuteStage",
    "MeasureStage",
    "ReplayResultSummary",
    "OperatorSelector",
    "SelectionResult",
    "ReplayPlanEntry",
    "CoverageReport",
    "OperatorReconstructor",
    "ReconstructionError",
    "TensorManager",
    "EmbeddingValueConfig",
    "CommReplayManager",
    "StreamAssigner",
    "ReplayConfig",
    "ReplayResult",
    "BenchmarkGenerator",
    "ScaleDownConfig",
    "ScaleDownEmulator",
]
