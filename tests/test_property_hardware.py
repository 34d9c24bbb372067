"""Property-based tests for the hardware models (cost, timeline, power, network)."""

from hypothesis import given, settings, strategies as st

from repro.hardware.costmodel import KernelCostModel
from repro.hardware.gpu import (
    GpuTimeline,
    exposed_time_by_category,
    merge_intervals,
    subtract_intervals,
    total_length,
)
from repro.hardware.network import CollectiveCostModel
from repro.hardware.power import PowerModel
from repro.hardware.specs import A100, V100
from repro.torchsim.kernel import KernelDesc, KernelKind, KernelLaunch, OpCategory

kernel_kinds = st.sampled_from(list(KernelKind))


@st.composite
def kernel_descs(draw):
    return KernelDesc(
        name="k",
        kind=draw(kernel_kinds),
        flops=draw(st.floats(min_value=0, max_value=1e13)),
        bytes_read=draw(st.floats(min_value=0, max_value=1e10)),
        bytes_written=draw(st.floats(min_value=0, max_value=1e10)),
        occupancy=draw(st.floats(min_value=0.05, max_value=1.0)),
        locality=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


class TestCostModelProperties:
    @given(kernel_descs())
    @settings(max_examples=300, deadline=None)
    def test_duration_positive_and_finite(self, desc):
        duration = KernelCostModel(A100).duration_us(desc)
        assert duration >= 1.5
        assert duration < 1e9

    @given(kernel_descs(), st.floats(min_value=0.3, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_lower_clock_never_speeds_up(self, desc, scale):
        full = KernelCostModel(A100, clock_scale=1.0).duration_us(desc)
        throttled = KernelCostModel(A100, clock_scale=scale).duration_us(desc)
        assert throttled >= full - 1e-9

    @given(kernel_descs(), st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_more_work_never_faster(self, desc, factor):
        model = KernelCostModel(A100)
        bigger = KernelDesc(
            name=desc.name, kind=desc.kind, flops=desc.flops * factor,
            bytes_read=desc.bytes_read * factor, bytes_written=desc.bytes_written * factor,
            occupancy=desc.occupancy, locality=desc.locality,
        )
        assert model.duration_us(bigger) >= model.duration_us(desc) - 1e-9

    @given(kernel_descs())
    @settings(max_examples=200, deadline=None)
    def test_roofline_never_faster_than_flops_only_model(self, desc):
        roofline = KernelCostModel(A100, mode="roofline").duration_us(desc)
        flops_only = KernelCostModel(A100, mode="flops").duration_us(desc)
        assert roofline >= flops_only - 1e-9


class TestTimelineProperties:
    @given(st.lists(
        st.tuples(
            st.sampled_from([7, 20, 22]),
            st.floats(min_value=0, max_value=1000),     # launch ts
            st.floats(min_value=1, max_value=500),      # duration
        ),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=200, deadline=None)
    def test_stream_ordering_and_busy_time_invariants(self, launches):
        timeline = GpuTimeline()
        resolved = []
        # Launch timestamps must be non-decreasing like a real CPU clock.
        current_ts = 0.0
        for stream, ts_increment, duration in launches:
            current_ts += ts_increment / 10.0
            desc = KernelDesc(name="k", kind=KernelKind.ELEMENTWISE, bytes_read=1e6, bytes_written=1e6)
            resolved.append(
                timeline.add_launch(
                    KernelLaunch(desc=desc, stream_id=stream, launch_ts=current_ts,
                                 duration=duration, op_node_id=0, op_name="op",
                                 category=OpCategory.ATEN)
                )
            )
        # Invariant 1: kernels never start before their launch timestamp.
        assert all(k.start >= k.launch_ts for k in resolved)
        # Invariant 2: per-stream issue order is preserved without overlap.
        per_stream = {}
        for kernel in resolved:
            per_stream.setdefault(kernel.stream_id, []).append(kernel)
        for kernels in per_stream.values():
            for earlier, later in zip(kernels, kernels[1:]):
                assert later.start >= earlier.end - 1e-9
        # Invariant 3: busy time <= wall time and <= total kernel time.
        stats = timeline.stats()
        assert stats.busy_time_us <= stats.wall_time_us + 1e-6
        assert stats.busy_time_us <= stats.total_kernel_time_us + 1e-6
        # Invariant 4: exposed time per category never exceeds its kernel time.
        for category, exposed in stats.category_exposed_time_us.items():
            assert exposed <= stats.category_kernel_time_us[category] + 1e-6
        # Invariant 5: utilisation bounded.
        assert 0.0 <= stats.sm_utilization <= 1.0


def _reference_subtract(base, cover):
    """The O(n*m) subtraction: split every base interval by every cover
    interval in turn, keeping what each cover leaves (empty base intervals
    included)."""
    result = []
    for start, end in base:
        segments = [(start, end)]
        for c_start, c_end in cover:
            next_segments = []
            for s_start, s_end in segments:
                if c_end <= s_start or c_start >= s_end:
                    next_segments.append((s_start, s_end))
                    continue
                if c_start > s_start:
                    next_segments.append((s_start, c_start))
                if c_end < s_end:
                    next_segments.append((c_end, s_end))
            segments = next_segments
        result.extend(segments)
    return result


def _reference_exposed(category_intervals):
    exposed = {}
    for category, intervals in category_intervals.items():
        others = []
        for other, other_intervals in category_intervals.items():
            if other != category:
                others.extend(other_intervals)
        exposed[category] = total_length(
            _reference_subtract(merge_intervals(intervals), merge_intervals(others))
        )
    return exposed


def _bits(value):
    return float(value).hex()


# Points on a coarse grid make touching and zero-length intervals common;
# arbitrary floats cover the rest.
_points = st.one_of(
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(min_value=0.0, max_value=12.0),
)
_intervals = st.lists(st.tuples(_points, _points).map(sorted).map(tuple), max_size=12)


class TestIntervalAlgebraProperties:
    @given(_intervals, _intervals)
    @settings(max_examples=400, deadline=None)
    def test_subtract_matches_reference(self, base, raw_cover):
        cover = merge_intervals(raw_cover)
        reference = _reference_subtract(base, cover)
        swept = subtract_intervals(base, cover)
        assert swept == [(s, e) for s, e in reference if e > s]
        assert _bits(total_length(swept)) == _bits(total_length(reference))

    @given(st.dictionaries(st.sampled_from(["aten", "comms", "data"]), _intervals, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_exposed_time_matches_reference(self, category_intervals):
        exposed = exposed_time_by_category(category_intervals)
        reference = _reference_exposed(category_intervals)
        assert list(exposed) == list(reference)
        assert [_bits(v) for v in exposed.values()] == [_bits(v) for v in reference.values()]

    def test_touching_and_zero_length_intervals(self):
        # A touching cover leaves the base whole; a zero-length cover inside
        # the base splits it; a zero-length base interval is dropped.
        assert subtract_intervals([(0.0, 5.0)], [(5.0, 7.0)]) == [(0.0, 5.0)]
        assert subtract_intervals([(0.0, 10.0)], [(2.0, 2.0), (5.0, 5.0)]) == [
            (0.0, 2.0), (2.0, 5.0), (5.0, 10.0)
        ]
        assert subtract_intervals([(3.0, 3.0)], []) == []
        assert subtract_intervals([(1.0, 4.0), (6.0, 9.0)], [(0.0, 2.0), (3.0, 7.0)]) == [
            (2.0, 3.0), (7.0, 9.0)
        ]


class TestPowerModelProperties:
    @given(st.floats(min_value=100.0, max_value=400.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_power_bounded_by_idle_and_limit(self, limit, busy, utilization):
        model = PowerModel(A100, power_limit_w=limit)
        power = model.average_power_w(busy, utilization)
        assert A100.idle_power_w - 1e-9 <= power <= limit + 1e-9

    @given(st.floats(min_value=100.0, max_value=400.0))
    @settings(max_examples=100, deadline=None)
    def test_clock_scale_in_unit_interval(self, limit):
        assert 0.0 < PowerModel(A100, power_limit_w=limit).clock_scale <= 1.0

    @given(st.floats(min_value=100.0, max_value=299.0), st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_higher_cap_never_lowers_clock(self, limit, _unused):
        low = PowerModel(V100, power_limit_w=limit).clock_scale
        high = PowerModel(V100, power_limit_w=min(limit + 50.0, V100.tdp_w)).clock_scale
        assert high >= low - 1e-9


class TestCollectiveModelProperties:
    collectives = st.sampled_from(["all_reduce", "all_to_all", "all_gather", "reduce_scatter", "broadcast"])

    @given(collectives, st.floats(min_value=1e3, max_value=1e9), st.integers(min_value=2, max_value=256))
    @settings(max_examples=300, deadline=None)
    def test_duration_positive_and_monotone_in_bytes(self, op, payload, world_size):
        model = CollectiveCostModel()
        small = model.collective_us(op, payload, world_size)
        large = model.collective_us(op, payload * 4, world_size)
        assert small > 0
        assert large >= small - 1e-9

    @given(collectives, st.floats(min_value=1e5, max_value=1e8))
    @settings(max_examples=100, deadline=None)
    def test_crossing_node_boundary_not_faster(self, op, payload):
        model = CollectiveCostModel()
        within = model.collective_us(op, payload, 8)
        across = model.collective_us(op, payload, 16)
        assert across >= within - 1e-9
