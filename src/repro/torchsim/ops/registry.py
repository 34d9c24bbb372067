"""The operator registry.

Every operator the simulated framework can execute is described by an
:class:`OperatorDef`: its schema, its category (ATen / communication /
fused / custom — Section 3.3 of the paper) and a Python implementation.

Implementations receive an :class:`~repro.torchsim.runtime.OpContext` as
their first argument and may either launch simulated kernels directly
("leaf" operators such as ``aten::addmm``) or invoke other operators through
the context ("composite" operators such as ``aten::linear``), which is what
produces the parent/child nesting captured in execution traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.torchsim.kernel import OpCategory
from repro.torchsim.ops.schema import OperatorSchema, parse_schema


@dataclass
class OperatorDef:
    """A registered operator."""

    name: str
    schema_str: str
    category: OpCategory
    fn: Callable
    schema: Optional[OperatorSchema] = None
    #: Library the operator comes from (``"aten"``, ``"c10d"``, ``"fbgemm"``,
    #: ``"fairseq"`` ...).  Used by the replay-support policy to decide which
    #: custom operators are available out of the box.
    library: str = ""

    def __post_init__(self) -> None:
        if self.schema is None and self.schema_str:
            self.schema = parse_schema(self.schema_str)
        if not self.library:
            self.library = self.name.split("::")[0]


class OperatorRegistry:
    """Name → :class:`OperatorDef` mapping with category queries."""

    def __init__(self) -> None:
        self._ops: Dict[str, OperatorDef] = {}
        #: Bumped by every :meth:`register`, so state learned from this
        #: registry (``repro.core.vectorize.program_environment``) can tell
        #: that an operator was added or overridden in place since.
        self.generation = 0

    # ------------------------------------------------------------------
    def register(self, op_def: OperatorDef, overwrite: bool = False) -> OperatorDef:
        if not overwrite and op_def.name in self._ops:
            raise ValueError(f"operator already registered: {op_def.name}")
        self._ops[op_def.name] = op_def
        self.generation += 1
        return op_def

    def get(self, name: str) -> OperatorDef:
        if name not in self._ops:
            raise KeyError(f"unknown operator: {name}")
        return self._ops[name]

    def has(self, name: str) -> bool:
        return name in self._ops

    def names(self) -> List[str]:
        return sorted(self._ops)

    def by_category(self, category: OpCategory) -> List[OperatorDef]:
        return [op for op in self._ops.values() if op.category == category]

    def by_library(self, library: str) -> List[OperatorDef]:
        return [op for op in self._ops.values() if op.library == library]

    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __iter__(self) -> Iterable[OperatorDef]:
        return iter(self._ops.values())


#: The process-wide registry; importing :mod:`repro.torchsim.ops` fills it
#: with the built-in operator library.
global_registry = OperatorRegistry()


def register_op(
    schema: str,
    category: OpCategory = OpCategory.ATEN,
    library: str = "",
    registry: Optional[OperatorRegistry] = None,
    overwrite: bool = False,
) -> Callable[[Callable], Callable]:
    """Decorator that registers an operator implementation.

    Example::

        @register_op("aten::relu(Tensor self) -> Tensor")
        def relu(ctx, self):
            ...
    """
    target = registry if registry is not None else global_registry
    parsed = parse_schema(schema)

    def decorator(fn: Callable) -> Callable:
        op_def = OperatorDef(
            name=parsed.qualified_name,
            schema_str=schema,
            category=category,
            fn=fn,
            schema=parsed,
            library=library,
        )
        target.register(op_def, overwrite=overwrite)
        return fn

    return decorator
