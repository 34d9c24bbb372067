"""System- and micro-level performance counters.

The paper evaluates its generated benchmarks against the originals using

* macro metrics per device: SM utilisation, HBM bandwidth, GPU power
  (Figure 5, Table 5), and
* micro metrics per kernel: IPC, L1 hit rate, L2 hit rate, SM throughput
  (Figure 6).

Both are derived analytically from the kernel descriptors and the resolved
timeline; the formulas are deliberately simple but monotone in the right
quantities (arithmetic intensity, locality, occupancy), so that
original-vs-replay comparisons behave the way the paper's do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.hardware.gpu import TimelineStats
from repro.hardware.power import PowerModel
from repro.hardware.specs import DeviceSpec
from repro.torchsim.kernel import KernelDesc, KernelKind


@dataclass
class KernelCounters:
    """Micro-architectural counters for one kernel (Figure 6 metrics)."""

    kernel_name: str
    ipc: float
    l1_hit_rate: float
    l2_hit_rate: float
    sm_throughput: float
    duration_us: float = 0.0


@dataclass
class SystemMetrics:
    """Macro system metrics for one device (Figure 5 / Table 5 metrics)."""

    execution_time_ms: float
    sm_utilization_pct: float
    hbm_bandwidth_gbps: float
    gpu_power_w: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "execution_time_ms": self.execution_time_ms,
            "sm_utilization_pct": self.sm_utilization_pct,
            "hbm_bandwidth_gbps": self.hbm_bandwidth_gbps,
            "gpu_power_w": self.gpu_power_w,
        }


# ----------------------------------------------------------------------
# Micro-level counters
# ----------------------------------------------------------------------
_KIND_IPC_CEILING: Dict[KernelKind, float] = {
    KernelKind.GEMM: 3.6,
    KernelKind.CONV: 3.2,
    KernelKind.ELEMENTWISE: 1.2,
    KernelKind.REDUCTION: 1.0,
    KernelKind.NORMALIZATION: 1.1,
    KernelKind.POOLING: 1.0,
    KernelKind.EMBEDDING: 0.6,
    KernelKind.MEMCPY: 0.4,
    KernelKind.COLLECTIVE: 0.5,
    KernelKind.CUSTOM: 2.0,
    KernelKind.FUSED: 1.6,
}


def compute_kernel_counters(desc: KernelDesc, spec: DeviceSpec, duration_us: float = 0.0) -> KernelCounters:
    """Derive per-kernel micro counters from a kernel descriptor.

    The mapping is analytic:

    * IPC saturates towards a per-kind ceiling as arithmetic intensity
      grows (compute-bound kernels retire more instructions per cycle),
    * L1/L2 hit rates follow the kernel's locality hint, with the L2 always
      catching a larger fraction than the L1,
    * SM throughput is occupancy scaled by how compute-bound the kernel is.
    """
    intensity = desc.arithmetic_intensity
    ceiling = _KIND_IPC_CEILING.get(desc.kind, 1.5)
    # Smoothly interpolate between a bandwidth-bound floor and the ceiling.
    saturation = intensity / (intensity + 40.0)
    ipc = ceiling * (0.25 + 0.75 * saturation) * (0.6 + 0.4 * desc.occupancy)

    locality = max(0.0, min(1.0, desc.locality))
    l1_hit = 0.20 + 0.70 * locality
    l2_hit = min(0.98, l1_hit + 0.18 + 0.10 * locality)

    compute_boundness = saturation
    sm_throughput = desc.occupancy * (0.35 + 0.65 * compute_boundness)

    return KernelCounters(
        kernel_name=desc.name,
        ipc=ipc,
        l1_hit_rate=l1_hit,
        l2_hit_rate=l2_hit,
        sm_throughput=min(1.0, sm_throughput),
        duration_us=duration_us,
    )


def aggregate_kernel_counters(counters: Iterable[KernelCounters]) -> Optional[KernelCounters]:
    """Duration-weighted average of per-kernel counters ("overall" in Fig. 6)."""
    counters = list(counters)
    if not counters:
        return None
    total = sum(c.duration_us for c in counters)
    if total <= 0:
        weights = [1.0 for _ in counters]
        total = float(len(counters))
    else:
        weights = [c.duration_us for c in counters]
    return KernelCounters(
        kernel_name="overall",
        ipc=sum(c.ipc * w for c, w in zip(counters, weights)) / total,
        l1_hit_rate=sum(c.l1_hit_rate * w for c, w in zip(counters, weights)) / total,
        l2_hit_rate=sum(c.l2_hit_rate * w for c, w in zip(counters, weights)) / total,
        sm_throughput=sum(c.sm_throughput * w for c, w in zip(counters, weights)) / total,
        duration_us=total,
    )


# ----------------------------------------------------------------------
# Macro-level metrics
# ----------------------------------------------------------------------
def compute_system_metrics(
    stats: TimelineStats,
    spec: DeviceSpec,
    power_limit_w: Optional[float] = None,
) -> SystemMetrics:
    """Derive Figure 5-style macro metrics from a resolved timeline."""
    power_model = PowerModel(spec, power_limit_w)
    sm_util = stats.sm_utilization
    power = power_model.average_power_w(stats.busy_fraction, sm_util)
    return SystemMetrics(
        execution_time_ms=stats.wall_time_us / 1e3,
        sm_utilization_pct=sm_util * 100.0,
        hbm_bandwidth_gbps=stats.hbm_bandwidth_gbps,
        gpu_power_w=power,
    )
