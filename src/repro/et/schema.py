"""Execution-trace node schema (Table 2 of the paper).

Each node records:

==============  ======================================================
Key             Description
==============  ======================================================
name            Name of node
id              Unique ID of this node (assigned in execution order)
parent          Parent node ID
op_schema       PyTorch-style operator schema string
inputs          Array of input args (tensor refs or actual values)
input_shapes    Array of input shapes (``[]`` for non-tensor args)
input_types     Array of input types (``""`` for non-tensor args)
outputs         Array of output args
output_shapes   Array of output shapes
output_types    Array of output types
==============  ======================================================

Tensor arguments are encoded as the six-element identity tuple
``(tensor_id, storage_id, offset, numel, itemsize, device)``; the execution
order across nodes is not stored explicitly but follows from the node IDs,
which are assigned in increasing execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

#: ID of the synthetic root node every trace contains.
ROOT_NODE_ID = 1

#: Marker type strings used in ``input_types`` / ``output_types``.
_TENSOR_TYPE_PREFIX = "Tensor("
_GENERIC_LIST_PREFIX = "GenericList["


def is_tensor_type(type_str: str) -> bool:
    """True when a recorded type string denotes a single tensor argument."""
    return type_str.startswith(_TENSOR_TYPE_PREFIX)


def is_tensor_list_type(type_str: str) -> bool:
    """True when a recorded type string denotes a list of tensors."""
    return type_str.startswith(_GENERIC_LIST_PREFIX) and _TENSOR_TYPE_PREFIX in type_str


def encode_arg(value: Any) -> Tuple[Any, Any, str]:
    """Encode one operator argument into ``(value, shape, type)``.

    Tensors become their six-element identity tuple; lists of tensors become
    lists of tuples; everything else is stored verbatim with an empty shape,
    exactly as in the PyTorch execution trace.
    """
    # Duck-typed to avoid importing torchsim (the ET package must be usable
    # on traces alone, with no framework installed).
    if hasattr(value, "id") and hasattr(value, "shape") and hasattr(value, "type_string"):
        return list(value.id), list(value.shape), value.type_string()
    if isinstance(value, (list, tuple)) and value and all(
        hasattr(item, "id") and hasattr(item, "type_string") for item in value
    ):
        ids = [list(item.id) for item in value]
        shapes = [list(item.shape) for item in value]
        inner = ",".join(item.type_string() for item in value)
        return ids, shapes, f"GenericList[{inner}]"
    if isinstance(value, bool):
        return value, [], "Bool"
    if isinstance(value, int):
        return value, [], "Int"
    if isinstance(value, float):
        return value, [], "Double"
    if isinstance(value, str):
        return value, [], "String"
    if value is None:
        return None, [], "None"
    if isinstance(value, dict):
        return dict(value), [], "Dict"
    if isinstance(value, (list, tuple)):
        return list(value), [], "GenericList[Int]" if all(
            isinstance(item, int) for item in value
        ) else "GenericList"
    return str(value), [], "Unknown"


def decode_tensor_ref(value: Any) -> Optional[Tuple[int, int, int, int, int, str]]:
    """Decode an encoded tensor reference back into its identity tuple.

    Returns ``None`` when the value is not a tensor reference.
    """
    if (
        isinstance(value, (list, tuple))
        and len(value) == 6
        and all(isinstance(item, int) for item in value[:5])
        and isinstance(value[5], str)
    ):
        return (int(value[0]), int(value[1]), int(value[2]), int(value[3]), int(value[4]), value[5])
    return None


#: One decoded tensor reference (see :func:`decode_tensor_ref`).
TensorRef = Tuple[int, int, int, int, int, str]


class TraceValidationError(ValueError):
    """Serialised data is not an execution trace of the Table 2 shape."""


def decode_arg_refs(value: Any, type_str: str) -> Tuple[Optional[TensorRef], ...]:
    """Decoded tensor refs of one argument: one slot for a tensor, one per item
    for a tensor list, none otherwise; a slot is ``None`` where no ref decodes."""
    if is_tensor_type(type_str):
        return (decode_tensor_ref(value),)
    if is_tensor_list_type(type_str) and isinstance(value, (list, tuple)):
        return tuple(decode_tensor_ref(item) for item in value)
    return ()


#: Serialised node fields in ``ETNode`` order, with the exact JSON type ``from_dict``
#: requires and the default of an optional field (``None`` marks a required one).
_NAMES, _KINDS, _DEFAULTS = zip(
    ("name", str, None), ("id", int, None), ("parent", int, None), ("op_schema", str, ""),
    ("inputs", list, []), ("input_shapes", list, []), ("input_types", list, []),
    ("outputs", list, []), ("output_shapes", list, []), ("output_types", list, []),
    ("attrs", dict, {}),
)


@dataclass(frozen=True)
class ETNode:
    """One node of an execution trace (Table 2 schema).  Immutable (copy with
    :func:`dataclasses.replace`); decodes its tensor refs once, on first use."""

    name: str
    id: int
    parent: int
    op_schema: str = ""
    inputs: List[Any] = field(default_factory=list)
    input_shapes: List[Any] = field(default_factory=list)
    input_types: List[str] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)
    output_shapes: List[Any] = field(default_factory=list)
    output_types: List[str] = field(default_factory=list)
    #: Extra metadata that is not part of the Table 2 schema but that the
    #: PyTorch observer also records (thread id, record-function labels...).
    attrs: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def namespace(self) -> str:
        """Operator namespace (``aten``, ``c10d``, ``fbgemm`` ...)."""
        if "::" in self.name:
            return self.name.split("::", 1)[0]
        return ""

    @property
    def is_operator(self) -> bool:
        """True for real operator invocations (they carry a schema).

        Annotation nodes (``record_function`` labels, autograd wrappers,
        the profiler step markers) have no schema and are never replayed
        directly — the replayer descends into their children instead.
        """
        return bool(self.op_schema)

    @cached_property
    def input_refs(self) -> Tuple[Tuple[Optional[TensorRef], ...], ...]:
        """:func:`decode_arg_refs` of each input argument."""
        return tuple(map(decode_arg_refs, self.inputs, self.input_types))

    @cached_property
    def output_refs(self) -> Tuple[Tuple[Optional[TensorRef], ...], ...]:
        """:func:`decode_arg_refs` of each output argument."""
        return tuple(map(decode_arg_refs, self.outputs, self.output_types))

    @cached_property
    def _tensor_refs(self) -> Tuple[Tuple[TensorRef, ...], ...]:
        """The (input, output) refs, flattened and without ``None`` slots."""
        both = (self.input_refs, self.output_refs)
        return tuple(tuple(ref for refs in arg_refs for ref in refs if ref) for arg_refs in both)

    def input_tensor_refs(self) -> Tuple[TensorRef, ...]:
        """All tensor identity tuples appearing in the inputs."""
        return self._tensor_refs[0]

    def output_tensor_refs(self) -> Tuple[TensorRef, ...]:
        """All tensor identity tuples appearing in the outputs."""
        return self._tensor_refs[1]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "op_schema": self.op_schema,
            "inputs": self.inputs,
            "input_shapes": self.input_shapes,
            "input_types": self.input_types,
            "outputs": self.outputs,
            "output_shapes": self.output_shapes,
            "output_types": self.output_types,
        }
        if self.attrs:
            data["attrs"] = self.attrs
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "ETNode":
        """Decode one serialised node, raising :class:`TraceValidationError` on a
        mistyped field (a bool id too) or unequal or non-str argument arrays.
        Orphans are legal: :meth:`repro.et.builder.ETBuilder.preprocess` repairs them."""
        if type(data) is not dict:
            raise TraceValidationError("node is not an object")
        values = tuple(map(data.get, _NAMES, _DEFAULTS))
        if tuple(map(type, values)) != _KINDS:
            key, kind = next((key, kind) for key, value, kind in zip(_NAMES, values, _KINDS) if type(value) is not kind)
            raise TraceValidationError(f"node {key} {data.get(key)!r} is missing or not a {kind.__name__}")
        name, node_id, parent, op_schema, *arrays, attrs = values
        inputs, input_shapes, input_types, outputs, output_shapes, output_types = arrays
        if not (len(inputs) == len(input_shapes) == len(input_types) and len(outputs) == len(output_shapes) == len(output_types)
                and all(map(str.__instancecheck__, input_types + output_types))):
            raise TraceValidationError("node value/shape/type arrays differ in length or hold a non-string type")
        # Loading is hot and the frozen __init__ sets fields one at a time.
        node = object.__new__(cls)
        node.__dict__.update(zip(_NAMES, (name, node_id, parent, op_schema, *map(list, arrays), dict(attrs))))
        return node
