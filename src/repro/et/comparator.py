"""Similarity measurement between original and replayed runs.

Figure 3 includes a feedback loop that compares the replayed benchmark
against the original traces to validate (and improve) the methodology.  The
comparator quantifies that similarity along the axes the paper evaluates:

* end-to-end execution time (Table 4),
* system-level metrics — SM utilisation, HBM bandwidth, power (Figure 5),
* per-operator GPU time (the zoomed-in comparison of Figure 4),
* micro-architectural counters (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional


def relative_error(original: float, replay: float) -> float:
    """Absolute relative error, with a zero-original guard."""
    if original == 0:
        return 0.0 if replay == 0 else float("inf")
    return abs(replay - original) / abs(original)


@dataclass
class SimilarityReport:
    """Outcome of one original-vs-replay comparison."""

    execution_time_error: float = 0.0
    metric_errors: Dict[str, float] = field(default_factory=dict)
    per_operator_errors: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_operator_error(self) -> float:
        if not self.per_operator_errors:
            return 0.0
        return sum(self.per_operator_errors.values()) / len(self.per_operator_errors)

    def similarity_score(self) -> float:
        """A single [0, 1] score: 1 means indistinguishable from the original."""
        errors = [self.execution_time_error, *self.metric_errors.values()]
        if not errors:
            return 1.0
        mean_error = sum(min(error, 1.0) for error in errors) / len(errors)
        return max(0.0, 1.0 - mean_error)

    def passes(self, threshold: float = 0.15) -> bool:
        """True when every compared quantity is within ``threshold``."""
        if self.execution_time_error > threshold:
            return False
        return all(error <= threshold for error in self.metric_errors.values())


class TraceComparator:
    """Compares measured results of an original run and its replay."""

    def compare_metrics(
        self,
        original: Mapping[str, float],
        replay: Mapping[str, float],
        execution_time_key: Optional[str] = "execution_time_ms",
    ) -> SimilarityReport:
        """Compare two metric dictionaries key by key."""
        report = SimilarityReport()
        for key, original_value in original.items():
            if key not in replay:
                continue
            error = relative_error(original_value, replay[key])
            if key == execution_time_key:
                report.execution_time_error = error
            else:
                report.metric_errors[key] = error
        return report

    def compare_operator_times(
        self,
        original: Mapping[str, float],
        replay: Mapping[str, float],
        top_k: Optional[int] = None,
    ) -> SimilarityReport:
        """Compare per-operator (or per-kernel) GPU time breakdowns.

        ``top_k`` restricts the comparison to the longest-running original
        operators, as in Figure 6's "top 10 kernels by runtime".
        """
        names = sorted(original, key=lambda name: original[name], reverse=True)
        if top_k is not None:
            names = names[:top_k]
        report = SimilarityReport()
        total_original = sum(original.get(name, 0.0) for name in names)
        total_replay = sum(replay.get(name, 0.0) for name in names)
        report.execution_time_error = relative_error(total_original, total_replay)
        for name in names:
            report.per_operator_errors[name] = relative_error(
                original.get(name, 0.0), replay.get(name, 0.0)
            )
        return report
