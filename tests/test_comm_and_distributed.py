"""Tests for communication operators, process groups and work handles."""

import pytest

from repro.hardware.network import CollectiveCostModel, InterconnectSpec
from repro.torchsim import Runtime, Tensor
from repro.torchsim.distributed import DistributedContext, GroupTable, Work
from repro.torchsim.kernel import KernelKind, OpCategory
from repro.torchsim.stream import COMM_STREAM


def make_runtime(world_size=8, rank=0):
    dist = DistributedContext(rank=rank, world_size=world_size)
    return Runtime("A100", rank=rank, dist=dist)


class TestProcessGroups:
    def test_default_group_covers_all_ranks(self):
        dist = DistributedContext(rank=0, world_size=4)
        assert dist.default_group.ranks == (0, 1, 2, 3)
        assert dist.default_group.size == 4

    def test_new_group_gets_unique_id(self):
        dist = DistributedContext(rank=0, world_size=8)
        first = dist.groups.group([0, 1, 2, 3])
        second = dist.groups.group([4, 5, 6, 7])
        assert first.pg_id != second.pg_id
        assert dist.groups.group([0, 1, 2, 3]) is first

    def test_group_for_description_reuses_existing(self):
        dist = DistributedContext(rank=0, world_size=4)
        description = {"ranks": [0, 1, 2, 3], "backend": "nccl"}
        assert dist.groups.for_description(description) is dist.default_group

    def test_group_for_description_creates_missing(self):
        dist = DistributedContext(rank=0, world_size=8)
        group = dist.groups.for_description({"ranks": [0, 2, 4, 6], "backend": "nccl"})
        assert group.ranks == (0, 2, 4, 6)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            GroupTable(2).group([0, 1], backend="smoke-signals")

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            GroupTable(2).group([0, 0, 1])

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DistributedContext(rank=8, world_size=8)


class TestCollectiveOps:
    def test_all_reduce_kernel_on_comm_stream(self):
        rt = make_runtime()
        rt.call("c10d::all_reduce", [Tensor.empty((1024, 1024))], "sum", None, False)
        launch = rt.gpu.launches[0]
        assert launch.stream_id == COMM_STREAM
        assert launch.desc.kind == KernelKind.COLLECTIVE
        assert launch.category == OpCategory.COMM

    def test_blocking_all_reduce_waits(self):
        rt = make_runtime()
        rt.call("c10d::all_reduce", [Tensor.empty((4096, 4096))], "sum", None, False)
        assert rt.now() >= rt.gpu.launches[0].end

    def test_async_all_reduce_returns_work(self):
        rt = make_runtime()
        work = rt.call("c10d::all_reduce", [Tensor.empty((4096, 4096))], "sum", None, True)
        assert isinstance(work, Work)
        assert rt.now() < rt.gpu.launches[0].end
        work.wait()
        assert rt.now() >= rt.gpu.launches[0].end

    def test_all_to_all_and_all_gather_run(self):
        rt = make_runtime()
        tensors = [Tensor.empty((256, 256))]
        rt.call("c10d::all_to_all", tensors, tensors, None, False)
        rt.call("c10d::all_gather", tensors, tensors, None, False)
        assert len(rt.gpu.launches) == 2

    def test_single_process_collective_degrades_to_local(self):
        rt = Runtime("A100")  # no distributed context
        rt.call("c10d::all_reduce", [Tensor.empty((1024, 1024))], "sum", None, False)
        assert len(rt.gpu.launches) == 1

    def test_larger_world_size_costs_more(self):
        small = make_runtime(world_size=2)
        large = make_runtime(world_size=64)
        payload = [Tensor.empty((4096, 4096))]
        small.call("c10d::all_reduce", payload, "sum", None, False)
        large.call("c10d::all_reduce", payload, "sum", None, False)
        assert large.gpu.launches[0].duration > small.gpu.launches[0].duration

    def test_barrier_and_broadcast(self):
        rt = make_runtime()
        rt.call("c10d::barrier", None, False)
        rt.call("c10d::broadcast", [Tensor.empty((128,))], 0, None, False)
        assert len(rt.gpu.launches) == 2


class TestCollectiveCostModel:
    def test_all_reduce_scales_with_bytes(self):
        model = CollectiveCostModel()
        assert model.all_reduce_us(1e9, 8) > model.all_reduce_us(1e6, 8)

    def test_inter_node_slower_than_intra_node(self):
        model = CollectiveCostModel(InterconnectSpec(gpus_per_node=8))
        assert model.all_reduce_us(1e8, 16) > model.all_reduce_us(1e8, 8)

    def test_all_reduce_moves_twice_reduce_scatter(self):
        model = CollectiveCostModel()
        assert model.all_reduce_us(1e9, 8) > model.reduce_scatter_us(1e9, 8)

    def test_world_size_one_is_cheap(self):
        model = CollectiveCostModel()
        assert model.all_reduce_us(1e9, 1) < 50.0

    def test_delay_scale_multiplies_duration(self):
        base = CollectiveCostModel()
        scaled = CollectiveCostModel(delay_scale=3.0)
        assert scaled.all_reduce_us(1e8, 8) == pytest.approx(3.0 * base.all_reduce_us(1e8, 8))

    def test_extra_delay_added(self):
        base = CollectiveCostModel()
        padded = CollectiveCostModel(extra_delay_us=500.0)
        assert padded.all_to_all_us(1e8, 8) == pytest.approx(base.all_to_all_us(1e8, 8) + 500.0)

    def test_collective_dispatch_by_name(self):
        model = CollectiveCostModel()
        assert model.collective_us("c10d::all_reduce", 1e8, 8) == pytest.approx(model.all_reduce_us(1e8, 8))
        assert model.collective_us("all_to_all", 1e8, 8) == pytest.approx(model.all_to_all_us(1e8, 8))
        with pytest.raises(ValueError):
            model.collective_us("c10d::unknown_collective", 1e8, 8)

    def test_p2p_inter_node_slower(self):
        model = CollectiveCostModel()
        assert model.p2p_us(1e8, same_node=False) > model.p2p_us(1e8, same_node=True)
