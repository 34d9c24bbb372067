"""Tests for the execution-trace node schema and trace container."""

import dataclasses
import functools
import json
from collections import Counter

import pytest

import repro.api as api
from repro.bench.throughput import synthesize_fleet
from repro.cluster import ClusterReplayer
from repro.core.replayer import ReplayConfig
from repro.et import schema, trace as trace_module
from repro.et.schema import (
    ETNode,
    ROOT_NODE_ID,
    TraceValidationError,
    decode_tensor_ref,
    encode_arg,
    is_tensor_type,
)
from repro.et.trace import ExecutionTrace
from repro.service import TraceRepository
from repro.torchsim.tensor import Tensor
from repro.torchsim.dtypes import DType


class TestEncodeArg:
    def test_tensor_encoded_as_identity_tuple(self):
        tensor = Tensor.empty((4, 8), dtype=DType.FLOAT32)
        value, shape, type_str = encode_arg(tensor)
        assert shape == [4, 8]
        assert type_str == "Tensor(float32)"
        assert decode_tensor_ref(value) == tensor.id

    def test_tensor_list_encoded_as_generic_list(self):
        tensors = [Tensor.empty((2,)), Tensor.empty((3,))]
        value, shape, type_str = encode_arg(tensors)
        assert type_str.startswith("GenericList[Tensor(")
        assert shape == [[2], [3]]
        assert len(value) == 2

    def test_scalars(self):
        assert encode_arg(5) == (5, [], "Int")
        assert encode_arg(2.5) == (2.5, [], "Double")
        assert encode_arg(True) == (True, [], "Bool")
        assert encode_arg("sum") == ("sum", [], "String")
        assert encode_arg(None) == (None, [], "None")

    def test_bool_not_confused_with_int(self):
        _, _, type_str = encode_arg(False)
        assert type_str == "Bool"

    def test_int_list(self):
        value, shape, type_str = encode_arg([1, 2, 3])
        assert value == [1, 2, 3]
        assert type_str == "GenericList[Int]"

    def test_dict_preserved(self):
        description = {"pg_id": 0, "ranks": [0, 1], "backend": "nccl"}
        value, _, type_str = encode_arg(description)
        assert value == description
        assert type_str == "Dict"

    def test_decode_rejects_non_refs(self):
        assert decode_tensor_ref([1, 2, 3]) is None
        assert decode_tensor_ref("not a ref") is None
        assert decode_tensor_ref(None) is None

    def test_is_tensor_type(self):
        assert is_tensor_type("Tensor(float32)")
        assert not is_tensor_type("Int")
        assert not is_tensor_type("GenericList[Tensor(float32)]")


class TestETNode:
    def test_namespace(self):
        assert ETNode(name="aten::add", id=2, parent=1).namespace == "aten"
        assert ETNode(name="## forward ##", id=2, parent=1).namespace == ""

    def test_is_operator_requires_schema(self):
        op = ETNode(name="aten::add", id=2, parent=1, op_schema="aten::add(Tensor a) -> Tensor")
        annotation = ETNode(name="## forward ##", id=3, parent=1)
        assert op.is_operator
        assert not annotation.is_operator

    def test_tensor_refs_extracted(self):
        tensor = Tensor.empty((4,))
        value, shape, type_str = encode_arg(tensor)
        node = ETNode(
            name="aten::relu", id=2, parent=1, op_schema="aten::relu(Tensor self) -> Tensor",
            inputs=[value], input_shapes=[shape], input_types=[type_str],
            outputs=[value], output_shapes=[shape], output_types=[type_str],
        )
        assert node.input_tensor_refs() == (tensor.id,)
        assert node.output_tensor_refs() == (tensor.id,)

    def test_round_trip_dict(self):
        node = ETNode(
            name="aten::add", id=7, parent=1, op_schema="aten::add(Tensor a, Tensor b) -> Tensor",
            inputs=[1], input_shapes=[[]], input_types=["Int"], attrs={"tid": "main"},
        )
        assert ETNode.from_dict(node.to_dict()) == node


def build_sample_trace():
    trace = ExecutionTrace(metadata={"workload": "sample"})
    trace.add_node(ETNode(name="[root]", id=ROOT_NODE_ID, parent=0))
    trace.add_node(ETNode(name="aten::linear", id=2, parent=ROOT_NODE_ID,
                          op_schema="aten::linear(Tensor a, Tensor b) -> Tensor"))
    trace.add_node(ETNode(name="aten::t", id=3, parent=2, op_schema="aten::t(Tensor a) -> Tensor"))
    trace.add_node(ETNode(name="aten::addmm", id=4, parent=2,
                          op_schema="aten::addmm(Tensor a, Tensor b, Tensor c) -> Tensor"))
    trace.add_node(ETNode(name="## forward ##", id=5, parent=ROOT_NODE_ID))
    trace.add_node(ETNode(name="aten::relu", id=6, parent=5, op_schema="aten::relu(Tensor a) -> Tensor"))
    return trace


class TestExecutionTrace:
    def test_sorted_nodes_in_execution_order(self):
        trace = build_sample_trace()
        assert [node.id for node in trace.sorted_nodes()] == [1, 2, 3, 4, 5, 6]

    def test_children_and_descendants(self):
        trace = build_sample_trace()
        assert [c.id for c in trace.children(2)] == [3, 4]
        assert [d.id for d in trace.descendants(ROOT_NODE_ID)] == [2, 3, 4, 5, 6]

    def test_get_and_has(self):
        trace = build_sample_trace()
        assert trace.get(4).name == "aten::addmm"
        assert trace.has(4)
        assert not trace.has(99)
        with pytest.raises(KeyError):
            trace.get(99)

    def test_root_nodes(self):
        trace = build_sample_trace()
        assert [n.id for n in trace.root_nodes()] == [2, 5]

    def test_operators_excludes_annotations(self):
        trace = build_sample_trace()
        names = {node.name for node in trace.operators()}
        assert "## forward ##" not in names
        assert "aten::linear" in names

    def test_find_by_label(self):
        trace = build_sample_trace()
        assert len(trace.find_by_label("forward")) == 1

    def test_json_round_trip(self):
        trace = build_sample_trace()
        restored = ExecutionTrace.from_json(trace.to_json())
        assert len(restored) == len(trace)
        assert restored.metadata == trace.metadata
        assert restored.get(4).name == "aten::addmm"

    def test_save_and_load(self, tmp_path):
        trace = build_sample_trace()
        path = trace.save(tmp_path / "trace.json")
        assert path.exists()
        assert len(ExecutionTrace.load(path)) == len(trace)

    def test_index_refreshes_after_adding_nodes(self):
        trace = build_sample_trace()
        assert trace.has(6)
        trace.add_node(ETNode(name="aten::sum", id=7, parent=ROOT_NODE_ID,
                              op_schema="aten::sum(Tensor a) -> Tensor"))
        assert trace.has(7)
        assert [c.id for c in trace.children(ROOT_NODE_ID)] == [2, 5, 7]


# ----------------------------------------------------------------------
# The load boundary: one bounded, validating path for every trace
# ----------------------------------------------------------------------
def _valid_dict():
    return {
        "schema": "1.0.2-repro",
        "metadata": {"workload": "w"},
        "nodes": [
            {"name": "[root]", "id": 1, "parent": 0},
            {
                "name": "aten::relu", "id": 2, "parent": 1,
                "op_schema": "aten::relu(Tensor self) -> Tensor",
                "inputs": [[7, 7, 0, 4, 4, "cuda:0"]], "input_shapes": [[4]],
                "input_types": ["Tensor(float32)"],
                "outputs": [[8, 8, 0, 4, 4, "cuda:0"]], "output_shapes": [[4]],
                "output_types": ["Tensor(float32)"],
            },
        ],
    }


def _mutated(path, value):
    """``_valid_dict()`` with the key at ``path`` set to ``value``."""
    data = _valid_dict()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


MALFORMED = {
    "top-level-list": [1, 2],
    "top-level-string": "trace",
    "no-nodes": {"metadata": {}},
    "empty-nodes": _mutated(("nodes",), []),
    "nodes-not-array": _mutated(("nodes",), {"name": "r"}),
    "metadata-list": _mutated(("metadata",), [1]),
    "node-not-object": _mutated(("nodes", 1), [2]),
    "missing-parent": {"nodes": [{"name": "r", "id": 1}]},
    "attrs-list": _mutated(("nodes", 1, "attrs"), ["tid"]),
    "id-string": _mutated(("nodes", 1, "id"), "2"),
    "id-float": _mutated(("nodes", 1, "id"), 2.0),
    "id-bool": _mutated(("nodes", 1, "id"), True),
    "parent-null": _mutated(("nodes", 1, "parent"), None),
    "parent-bool": _mutated(("nodes", 1, "parent"), False),
    "name-int": _mutated(("nodes", 1, "name"), 3),
    "op-schema-list": _mutated(("nodes", 1, "op_schema"), ["aten::relu"]),
    "input-types-non-str": _mutated(("nodes", 1, "input_types"), [4]),
    "output-types-non-str": _mutated(("nodes", 1, "output_types"), [None]),
    "inputs-not-array": _mutated(("nodes", 1, "inputs"), "abc"),
    "input-lengths-differ": _mutated(("nodes", 1, "input_shapes"), [[4], [4]]),
    "output-lengths-differ": _mutated(("nodes", 1, "output_types"), []),
}


class TestLoadBoundary:
    def test_valid_trace_round_trips(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(_valid_dict()))
        trace = ExecutionTrace.load(path)
        assert ExecutionTrace.load(trace.save(tmp_path / "u.json")).digest() == trace.digest()

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_input_raises_typed_error_everywhere(self, tmp_path, name):
        text = json.dumps(MALFORMED[name])
        with pytest.raises(TraceValidationError):
            ExecutionTrace.from_json(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(TraceValidationError):
            ExecutionTrace.load(path)
        repository = TraceRepository(tmp_path)
        assert repository.discover() == []
        assert list(repository.invalid) == [path]

    def test_orphan_parents_stay_legal(self):
        trace = ExecutionTrace.from_dict(_mutated(("nodes", 1, "parent"), 99))
        assert trace.get(2).parent == 99

    def test_oversized_file_fails_before_parsing(self, tmp_path, monkeypatch):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(_valid_dict()))
        limit = path.stat().st_size - 1
        monkeypatch.setattr(trace_module, "MAX_TRACE_BYTES", limit)

        def parse_called(*args, **kwargs):
            raise AssertionError("an oversized trace was parsed")

        monkeypatch.setattr(trace_module.json, "loads", parse_called)
        with pytest.raises(TraceValidationError, match=f"{limit}-byte limit"):
            ExecutionTrace.load(path)
        repository = TraceRepository(tmp_path)
        assert repository.discover() == []
        assert "byte limit" in repository.invalid[path]

    def test_file_at_the_limit_loads(self, tmp_path, monkeypatch):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(_valid_dict()))
        monkeypatch.setattr(trace_module, "MAX_TRACE_BYTES", path.stat().st_size)
        assert len(ExecutionTrace.load(path)) == 2

    def test_nodes_are_frozen(self):
        node = ETNode(name="aten::relu", id=2, parent=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.parent = 3
        assert dataclasses.replace(node, parent=3).parent == 3


# ----------------------------------------------------------------------
# Decode once: every ETNode decodes each encoded tensor ref at most once
# ----------------------------------------------------------------------
class TestDecodeOnce:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Count ``decode_tensor_ref`` calls and which node objects decoded.

        Returns ``(calls, decoded, nodes)``: the total call count; per
        ``(node object id, direction)``, how often that node decoded that
        direction; and the decoding nodes by id (kept alive so ids stay
        unique).
        """
        calls = Counter()
        decoded = Counter()
        nodes = {}
        real_decode = schema.decode_tensor_ref

        def counting_decode(value):
            calls["decode"] += 1
            return real_decode(value)

        monkeypatch.setattr(schema, "decode_tensor_ref", counting_decode)
        for name in ("input_refs", "output_refs"):
            compute = ETNode.__dict__[name].func

            def wrapped(node, compute=compute, name=name):
                nodes[id(node)] = node
                decoded[(id(node), name)] += 1
                return compute(node)

            prop = functools.cached_property(wrapped)
            prop.__set_name__(ETNode, name)
            monkeypatch.setattr(ETNode, name, prop)
        return calls, decoded, nodes

    @staticmethod
    def _bound(nodes):
        """Encoded tensor refs held by every node object that decoded."""
        return sum(
            len(refs)
            for node in nodes.values()
            for refs in node.__dict__.get("input_refs", ()) + node.__dict__.get("output_refs", ())
        )

    def test_fleet_and_single_rank_replays_decode_each_ref_once(self, counted):
        calls, decoded, nodes = counted
        config = ReplayConfig(iterations=2, warmup_iterations=0, world_size=8)
        fleet = synthesize_fleet(8)
        ClusterReplayer(config).replay(fleet)
        api.replay(fleet[0]).using(ReplayConfig(iterations=2, warmup_iterations=0)).run()
        assert nodes, "the replays decoded no node"
        assert set(decoded.values()) == {1}
        assert 0 < calls["decode"] <= self._bound(nodes)
