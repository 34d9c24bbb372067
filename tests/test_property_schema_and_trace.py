"""Property-based tests (hypothesis) for schemas, traces and argument encoding."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.et.schema import ETNode, ROOT_NODE_ID, TraceValidationError, decode_tensor_ref, encode_arg
from repro.et.builder import ETBuilder
from repro.et.trace import ExecutionTrace
from repro.torchsim.dtypes import DType
from repro.torchsim.ops.schema import parse_schema
from repro.torchsim.tensor import Tensor

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
identifier = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
scalar_types = st.sampled_from(["Tensor", "Tensor?", "int", "float", "bool", "Scalar", "str", "int[]"])


@st.composite
def schema_strings(draw):
    namespace = draw(st.sampled_from(["aten", "c10d", "fbgemm", "mylib"]))
    name = draw(identifier)
    arg_count = draw(st.integers(min_value=1, max_value=5))
    args = []
    for index in range(arg_count):
        arg_type = draw(scalar_types)
        arg_name = f"{draw(identifier)}{index}"
        args.append(f"{arg_type} {arg_name}")
    returns = draw(st.sampled_from(["Tensor", "(Tensor, Tensor)", "Tensor[]"]))
    return f"{namespace}::{name}({', '.join(args)}) -> {returns}"


@st.composite
def trace_structures(draw):
    """Random parent/child trees of operator and annotation nodes."""
    node_count = draw(st.integers(min_value=1, max_value=25))
    trace = ExecutionTrace()
    trace.add_node(ETNode(name="[root]", id=ROOT_NODE_ID, parent=0))
    ids = [ROOT_NODE_ID]
    for offset in range(node_count):
        node_id = ROOT_NODE_ID + 1 + offset
        parent = draw(st.sampled_from(ids))
        is_operator = draw(st.booleans())
        trace.add_node(
            ETNode(
                name=f"aten::op{offset}" if is_operator else f"label_{offset}",
                id=node_id,
                parent=parent,
                op_schema=f"aten::op{offset}(Tensor x) -> Tensor" if is_operator else "",
            )
        )
        ids.append(node_id)
    return trace


# ----------------------------------------------------------------------
# Schema parser properties
# ----------------------------------------------------------------------
class TestSchemaParserProperties:
    @given(schema_strings())
    @settings(max_examples=200, deadline=None)
    def test_parse_to_string_round_trip_is_stable(self, schema_str):
        parsed = parse_schema(schema_str)
        reparsed = parse_schema(parsed.to_string())
        assert parsed == reparsed

    @given(schema_strings())
    @settings(max_examples=100, deadline=None)
    def test_argument_count_preserved(self, schema_str):
        parsed = parse_schema(schema_str)
        declared_args = schema_str.split(") ->", 1)[0].split("(", 1)[1]
        assert len(parsed.args) == len([a for a in declared_args.split(",") if a.strip()])


# ----------------------------------------------------------------------
# Argument encoding properties
# ----------------------------------------------------------------------
class TestEncodeArgProperties:
    @given(st.one_of(st.integers(min_value=-10**9, max_value=10**9), st.booleans(),
                     st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=20)))
    @settings(max_examples=200, deadline=None)
    def test_scalars_encoded_verbatim_with_empty_shape(self, value):
        encoded, shape, type_str = encode_arg(value)
        assert encoded == value
        assert shape == []
        assert type_str in {"Int", "Bool", "Double", "String"}

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=0, max_size=4),
           st.sampled_from(list(DType)))
    @settings(max_examples=200, deadline=None)
    def test_tensor_encoding_round_trips_identity(self, shape, dtype):
        tensor = Tensor.empty(tuple(shape), dtype=dtype)
        encoded, encoded_shape, type_str = encode_arg(tensor)
        assert decode_tensor_ref(encoded) == tensor.id
        assert tuple(encoded_shape) == tensor.shape
        assert type_str == f"Tensor({dtype.type_name})"
        # The identity carries numel and itemsize consistently.
        assert encoded[3] == tensor.numel
        assert encoded[4] == dtype.itemsize


# ----------------------------------------------------------------------
# Trace container properties
# ----------------------------------------------------------------------
class TestTraceProperties:
    @given(trace_structures())
    @settings(max_examples=100, deadline=None)
    def test_serialisation_round_trip(self, trace):
        restored = ExecutionTrace.from_json(trace.to_json())
        assert len(restored) == len(trace)
        assert [n.id for n in restored.sorted_nodes()] == [n.id for n in trace.sorted_nodes()]

    @given(trace_structures())
    @settings(max_examples=100, deadline=None)
    def test_descendants_never_include_self_and_are_closed(self, trace):
        for node in trace.sorted_nodes():
            descendants = trace.descendants(node.id)
            ids = {d.id for d in descendants}
            assert node.id not in ids
            # Closure: a descendant's children are also descendants.
            for descendant in descendants:
                for child in trace.children(descendant.id):
                    assert child.id in ids

    @given(trace_structures())
    @settings(max_examples=100, deadline=None)
    def test_validation_passes_and_compose_preserves_operator_count(self, trace):
        assert ETBuilder.validate(trace) == []
        composed = ETBuilder.compose([trace, trace])
        assert ETBuilder.validate(composed) == []
        assert len(composed.operators()) == 2 * len(trace.operators())

    @given(trace_structures())
    @settings(max_examples=100, deadline=None)
    def test_top_level_selection_has_no_nested_pairs(self, trace):
        from repro.et.analyzer import iter_top_level_operators

        selected = iter_top_level_operators(trace)
        selected_ids = {node.id for node in selected}
        for node in selected:
            descendant_ids = {d.id for d in trace.descendants(node.id)}
            assert not (descendant_ids & selected_ids), "a selected operator's descendant was also selected"


# ----------------------------------------------------------------------
# Load-path fuzzing: every input round-trips or raises the typed error
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

NODE_FIELDS = (
    "name", "id", "parent", "op_schema", "inputs", "input_shapes", "input_types",
    "outputs", "output_shapes", "output_types", "attrs",
)


@st.composite
def valid_trace_dicts(draw):
    """Serialised traces whose operators carry tensor and scalar args."""
    data = draw(trace_structures()).to_dict()
    for entry in data["nodes"][1:]:
        for direction in ("input", "output"):
            args = draw(st.lists(
                st.sampled_from(["tensor", "list", "int"]), max_size=3
            ))
            values, shapes, types = [], [], []
            for kind in args:
                ref = [draw(st.integers(1, 50)), draw(st.integers(1, 50)), 0, 4, 4, "cuda:0"]
                if kind == "tensor":
                    values.append(ref), shapes.append([4]), types.append("Tensor(float32)")
                elif kind == "list":
                    values.append([ref, ref]), shapes.append([[4], [4]])
                    types.append("GenericList[Tensor(float32),Tensor(float32)]")
                else:
                    values.append(draw(st.integers())), shapes.append([]), types.append("Int")
            entry[f"{direction}s"] = values
            entry[f"{direction}_shapes"] = shapes
            entry[f"{direction}_types"] = types
    return data


@st.composite
def mutated_trace_dicts(draw):
    """A valid serialised trace with one field replaced or deleted."""
    data = draw(valid_trace_dicts())
    target = draw(st.sampled_from(["top", "node"]))
    if target == "top":
        container, key = data, draw(st.sampled_from(["schema", "metadata", "nodes"]))
    else:
        container = draw(st.sampled_from(data["nodes"]))
        key = draw(st.sampled_from(NODE_FIELDS))
    if draw(st.booleans()):
        container.pop(key, None)
    else:
        container[key] = draw(json_values)
    return data


def _round_trips_or_rejects(raw: bytes) -> None:
    """``load`` either raises :class:`TraceValidationError` or returns a
    trace with ``load(save(t)).digest() == t.digest()``; nothing else."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.json"
        path.write_bytes(raw)
        try:
            trace = ExecutionTrace.load(path)
        except TraceValidationError:
            return
        saved = trace.save(Path(directory) / "saved.json")
        assert ExecutionTrace.load(saved).digest() == trace.digest()


class TestLoadPathFuzz:
    @given(json_values)
    @settings(max_examples=200, deadline=None)
    def test_random_json_round_trips_or_raises_typed_error(self, value):
        _round_trips_or_rejects(json.dumps(value).encode())

    @given(st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_round_trip_or_raise_typed_error(self, raw):
        _round_trips_or_rejects(raw)

    @given(valid_trace_dicts())
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_valid_traces_round_trip(self, data):
        trace = ExecutionTrace.from_dict(data)
        assert trace.digest() == ExecutionTrace.from_json(trace.to_json()).digest()
        _round_trips_or_rejects(json.dumps(data).encode())

    @given(mutated_trace_dicts())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_field_mutations_round_trip_or_raise_typed_error(self, data):
        _round_trips_or_rejects(json.dumps(data).encode())
