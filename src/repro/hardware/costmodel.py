"""Roofline-style kernel cost model.

Each kernel descriptor is converted into an on-device duration:

``time = max(compute_time, memory_time) + fixed_overhead``

where ``compute_time = flops / (peak_flops * efficiency(kind))`` and
``memory_time = bytes / (peak_bandwidth * efficiency(kind, locality))``.

Efficiency factors are per kernel kind (a GEMM gets much closer to peak than
a gather).  The power model scales the compute roof with the device clock,
which is how the power-limit sweep of Figure 8 bends throughput.

An alternative pure-FLOP model (no bandwidth roof) is provided for the
ablation benchmark; the roofline model is the default everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.hardware.specs import DeviceSpec
from repro.torchsim.kernel import KernelDesc, KernelKind

#: Fraction of peak compute each kernel kind typically achieves.
_DEFAULT_COMPUTE_EFFICIENCY: Dict[KernelKind, float] = {
    KernelKind.GEMM: 0.72,
    KernelKind.CONV: 0.62,
    KernelKind.ELEMENTWISE: 0.30,
    KernelKind.REDUCTION: 0.28,
    KernelKind.NORMALIZATION: 0.25,
    KernelKind.POOLING: 0.25,
    KernelKind.EMBEDDING: 0.15,
    KernelKind.MEMCPY: 0.10,
    KernelKind.COLLECTIVE: 0.10,
    KernelKind.CUSTOM: 0.45,
    KernelKind.FUSED: 0.40,
}

#: Fraction of peak DRAM bandwidth each kernel kind typically achieves.
_DEFAULT_MEMORY_EFFICIENCY: Dict[KernelKind, float] = {
    KernelKind.GEMM: 0.75,
    KernelKind.CONV: 0.70,
    KernelKind.ELEMENTWISE: 0.85,
    KernelKind.REDUCTION: 0.80,
    KernelKind.NORMALIZATION: 0.70,
    KernelKind.POOLING: 0.70,
    KernelKind.EMBEDDING: 0.55,
    KernelKind.MEMCPY: 0.90,
    KernelKind.COLLECTIVE: 0.80,
    KernelKind.CUSTOM: 0.60,
    KernelKind.FUSED: 0.85,
}

#: Minimum duration of any launched kernel, in microseconds.  Real devices
#: cannot retire a kernel faster than a few microseconds end to end.
_MIN_KERNEL_US = 1.5


@dataclass
class KernelCostModel:
    """Maps a :class:`KernelDesc` to a duration on a given device.

    Parameters
    ----------
    spec:
        The device to model.
    clock_scale:
        Multiplier on the compute roof; the power model lowers it when the
        device power limit forces a lower clock.
    mode:
        ``"roofline"`` (default) or ``"flops"``; the latter ignores the
        memory roof and exists for the cost-model ablation.
    """

    spec: DeviceSpec
    clock_scale: float = 1.0
    mode: str = "roofline"
    compute_efficiency: Dict[KernelKind, float] = field(
        default_factory=lambda: dict(_DEFAULT_COMPUTE_EFFICIENCY)
    )
    memory_efficiency: Dict[KernelKind, float] = field(
        default_factory=lambda: dict(_DEFAULT_MEMORY_EFFICIENCY)
    )

    def __post_init__(self) -> None:
        if self.mode not in ("roofline", "flops"):
            raise ValueError(f"unknown cost model mode: {self.mode!r}")
        if not 0.0 < self.clock_scale <= 1.5:
            raise ValueError("clock_scale must be in (0, 1.5]")

    # ------------------------------------------------------------------
    def compute_time_us(self, desc: KernelDesc) -> float:
        """Time the kernel spends on the compute roof, in microseconds."""
        if desc.flops <= 0:
            return 0.0
        efficiency = self.compute_efficiency.get(desc.kind, 0.4)
        precision_peak = self.spec.peak_fp32_flops
        if desc.metadata.get("dtype") in ("float16", "bfloat16"):
            precision_peak = self.spec.peak_fp16_flops
        effective = precision_peak * efficiency * desc.occupancy * self.clock_scale
        if effective <= 0:
            return float("inf")
        return desc.flops / effective * 1e6

    def memory_time_us(self, desc: KernelDesc) -> float:
        """Time the kernel spends on the memory roof, in microseconds."""
        if desc.bytes_total <= 0:
            return 0.0
        efficiency = self.memory_efficiency.get(desc.kind, 0.6)
        # Poor locality (cache-hostile gathers) wastes bandwidth on partially
        # used cache lines; scale the achievable bandwidth accordingly.
        locality_factor = 0.45 + 0.55 * max(0.0, min(1.0, desc.locality))
        effective = self.spec.mem_bandwidth_bps * efficiency * locality_factor
        return desc.bytes_total / effective * 1e6

    def duration_us(self, desc: KernelDesc) -> float:
        """Modelled on-device execution time of the kernel, in microseconds."""
        compute = self.compute_time_us(desc)
        memory = self.memory_time_us(desc)
        if self.mode == "flops":
            body = compute if compute > 0 else memory
        else:
            body = max(compute, memory)
        return max(_MIN_KERNEL_US, body + 0.5)

    def dominant_roof(self, desc: KernelDesc) -> str:
        """Which roof binds the kernel: ``"compute"`` or ``"memory"``."""
        return "compute" if self.compute_time_us(desc) >= self.memory_time_us(desc) else "memory"

    def with_clock_scale(self, clock_scale: float) -> "KernelCostModel":
        """Return a copy of the model running at a different clock."""
        return KernelCostModel(
            spec=self.spec,
            clock_scale=clock_scale,
            mode=self.mode,
            compute_efficiency=dict(self.compute_efficiency),
            memory_efficiency=dict(self.memory_efficiency),
        )
