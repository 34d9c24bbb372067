"""Metric post-processing for the evaluation.

Turns raw kernel launches into the quantities the paper plots:

* per-kernel micro-architectural counters, aggregated by kernel name
  (Figure 6 compares the top-10 kernels of ResNet by runtime),
* per-operator GPU-time breakdowns (the zoomed-in comparison of Figure 4),
* normalisation helpers shared by the figure-regeneration benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.hardware.counters import KernelCounters, compute_kernel_counters
from repro.hardware.specs import DeviceSpec
from repro.torchsim.kernel import KernelLaunch


def kernel_counters_by_name(
    launches: Iterable[KernelLaunch], spec: DeviceSpec
) -> Dict[str, KernelCounters]:
    """Duration-weighted micro counters aggregated per kernel name."""
    grouped: Dict[str, List[KernelLaunch]] = {}
    for launch in launches:
        grouped.setdefault(launch.desc.name, []).append(launch)

    aggregated: Dict[str, KernelCounters] = {}
    for name, group in grouped.items():
        total_duration = sum(launch.duration for launch in group)
        if total_duration <= 0:
            total_duration = float(len(group))
            weights = [1.0] * len(group)
        else:
            weights = [launch.duration for launch in group]
        per_launch = [
            compute_kernel_counters(launch.desc, spec, launch.duration) for launch in group
        ]
        aggregated[name] = KernelCounters(
            kernel_name=name,
            ipc=sum(c.ipc * w for c, w in zip(per_launch, weights)) / total_duration,
            l1_hit_rate=sum(c.l1_hit_rate * w for c, w in zip(per_launch, weights)) / total_duration,
            l2_hit_rate=sum(c.l2_hit_rate * w for c, w in zip(per_launch, weights)) / total_duration,
            sm_throughput=sum(c.sm_throughput * w for c, w in zip(per_launch, weights)) / total_duration,
            duration_us=sum(launch.duration for launch in group),
        )
    return aggregated


def top_kernel_names(launches: Iterable[KernelLaunch], top_k: int = 10) -> List[str]:
    """Kernel names ranked by total runtime (Figure 6's top-10 selection)."""
    totals: Dict[str, float] = {}
    for launch in launches:
        totals[launch.desc.name] = totals.get(launch.desc.name, 0.0) + launch.duration
    return sorted(totals, key=lambda name: totals[name], reverse=True)[:top_k]


def operator_gpu_time_breakdown(launches: Iterable[KernelLaunch]) -> Dict[str, float]:
    """Total GPU kernel time per launching operator name."""
    totals: Dict[str, float] = {}
    for launch in launches:
        totals[launch.op_name] = totals.get(launch.op_name, 0.0) + launch.duration
    return totals


def normalize_to(reference: Dict[str, float], values: Dict[str, float]) -> Dict[str, float]:
    """Normalise ``values`` to ``reference`` key by key (ratio = value/ref)."""
    normalized: Dict[str, float] = {}
    for key, ref in reference.items():
        if ref == 0:
            normalized[key] = 0.0 if values.get(key, 0.0) == 0 else float("inf")
        else:
            normalized[key] = values.get(key, 0.0) / ref
    return normalized
