"""Device specifications.

The numbers are public datasheet values (peak FLOP rates, memory bandwidth,
SM counts, TDP) plus a handful of framework-level constants (kernel launch
and dispatch overheads) chosen to be representative of a modern CUDA +
PyTorch stack.  Absolute accuracy is not the goal — the paper's evaluation
compares *original vs replay on the same device*, so what matters is that
every workload and its replay see the same device model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class DeviceSpec:
    """Performance-relevant description of one execution platform.

    All throughput numbers are *peak* values; the cost model applies
    kernel-kind-specific efficiency factors on top of them.

    Units: TFLOP/s for compute, GB/s for bandwidth, Watts for power,
    microseconds for overheads, MHz for clocks.
    """

    name: str
    is_gpu: bool
    peak_fp32_tflops: float
    peak_fp16_tflops: float
    mem_bandwidth_gbps: float
    mem_capacity_gb: float
    num_sms: int
    l1_kb_per_sm: float
    l2_mb: float
    idle_power_w: float
    tdp_w: float
    min_power_limit_w: float
    base_clock_mhz: float
    boost_clock_mhz: float
    kernel_launch_overhead_us: float
    dispatch_overhead_us: float
    nvlink_bw_gbps: float = 0.0
    nic_bw_gbps: float = 0.0

    def clone(self, **overrides) -> "DeviceSpec":
        """Return a copy of this spec with some fields replaced."""
        return replace(self, **overrides)

    @property
    def peak_fp32_flops(self) -> float:
        """Peak fp32 throughput in FLOP/s."""
        return self.peak_fp32_tflops * 1e12

    @property
    def peak_fp16_flops(self) -> float:
        return self.peak_fp16_tflops * 1e12

    @property
    def mem_bandwidth_bps(self) -> float:
        """Peak memory bandwidth in bytes/s."""
        return self.mem_bandwidth_gbps * 1e9


#: NVIDIA A100-SXM4-40GB (the paper's primary evaluation platform).
A100 = DeviceSpec(
    name="A100",
    is_gpu=True,
    peak_fp32_tflops=19.5,
    peak_fp16_tflops=312.0,
    mem_bandwidth_gbps=1555.0,
    mem_capacity_gb=40.0,
    num_sms=108,
    l1_kb_per_sm=192.0,
    l2_mb=40.0,
    idle_power_w=55.0,
    tdp_w=400.0,
    min_power_limit_w=100.0,
    base_clock_mhz=1095.0,
    boost_clock_mhz=1410.0,
    kernel_launch_overhead_us=4.0,
    dispatch_overhead_us=6.0,
    nvlink_bw_gbps=600.0,
    nic_bw_gbps=25.0,  # 200 Gb/s NIC per GPU
)

#: NVIDIA V100-SXM2-16GB (the secondary GPU platform of Figure 7).
V100 = DeviceSpec(
    name="V100",
    is_gpu=True,
    peak_fp32_tflops=15.7,
    peak_fp16_tflops=125.0,
    mem_bandwidth_gbps=900.0,
    mem_capacity_gb=16.0,
    num_sms=80,
    l1_kb_per_sm=128.0,
    l2_mb=6.0,
    idle_power_w=50.0,
    tdp_w=300.0,
    min_power_limit_w=100.0,
    base_clock_mhz=1290.0,
    boost_clock_mhz=1530.0,
    kernel_launch_overhead_us=4.5,
    dispatch_overhead_us=6.5,
    nvlink_bw_gbps=300.0,
    nic_bw_gbps=12.5,
)

#: A dual-socket Intel Xeon Platinum server, used as the CPU platform of
#: Figure 7 (and the baseline of Figure 10).  Treated as a single "device"
#: with one execution queue.
XEON_CPU = DeviceSpec(
    name="CPU",
    is_gpu=False,
    peak_fp32_tflops=3.0,
    peak_fp16_tflops=3.0,
    mem_bandwidth_gbps=210.0,
    mem_capacity_gb=384.0,
    num_sms=56,  # physical cores
    l1_kb_per_sm=48.0,
    l2_mb=56.0,
    idle_power_w=120.0,
    tdp_w=540.0,
    min_power_limit_w=200.0,
    base_clock_mhz=2400.0,
    boost_clock_mhz=3100.0,
    kernel_launch_overhead_us=0.5,
    dispatch_overhead_us=4.0,
)

#: The hypothetical next-generation accelerator used for the early-stage
#: platform evaluation of Figure 10.  Roughly "an A100 successor": ~1.9x
#: compute, ~2x HBM bandwidth.
NEW_PLATFORM = DeviceSpec(
    name="NewPlatform",
    is_gpu=True,
    peak_fp32_tflops=48.0,
    peak_fp16_tflops=700.0,
    mem_bandwidth_gbps=3000.0,
    mem_capacity_gb=80.0,
    num_sms=132,
    l1_kb_per_sm=256.0,
    l2_mb=50.0,
    idle_power_w=60.0,
    tdp_w=700.0,
    min_power_limit_w=150.0,
    base_clock_mhz=1300.0,
    boost_clock_mhz=1750.0,
    kernel_launch_overhead_us=3.5,
    dispatch_overhead_us=5.5,
    nvlink_bw_gbps=900.0,
    nic_bw_gbps=50.0,
)

_SPECS: Dict[str, DeviceSpec] = {
    spec.name.lower(): spec for spec in (A100, V100, XEON_CPU, NEW_PLATFORM)
}


def get_device_spec(name: str) -> DeviceSpec:
    """Look up a device spec by (case-insensitive) name.

    Raises ``KeyError`` with the list of known platforms when the name is
    unknown, which keeps benchmark configuration errors easy to diagnose.
    """
    key = name.lower()
    if key not in _SPECS:
        known = ", ".join(sorted(_SPECS))
        raise KeyError(f"unknown device spec {name!r}; known specs: {known}")
    return _SPECS[key]


def register_device_spec(spec: DeviceSpec) -> None:
    """Register a user-defined platform (e.g. for early-stage evaluation)."""
    _SPECS[spec.name.lower()] = spec
