"""Replay-support policy and the custom-operator registration interface.

Mystique replays all ATen operators, the c10d communication operators and a
set of common custom libraries (FBGEMM, torchrec) out of the box
(Section 5).  Other custom operators are *unsupported* unless the user
registers an implementation through the interface exposed here
(Section 4.3.3); fused operators are skipped entirely until the execution
trace carries enough metadata to rebuild them (Section 4.3.4).

The coverage rates of Table 3 fall directly out of this policy: the fraction
of a workload's operators (by count and by execution time) that the policy
marks as replayable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Set

from repro.et.analyzer import CATEGORY_FUSED, categorize_node
from repro.et.schema import ETNode
from repro.torchsim.kernel import OpCategory
from repro.torchsim.ops.registry import OperatorDef, OperatorRegistry, global_registry

#: Libraries Mystique supports without any user registration.
DEFAULT_SUPPORTED_LIBRARIES = ("aten", "c10d", "fbgemm", "torchrec")


class ReplaySupport:
    """Decides which execution-trace operators the replayer can reproduce."""

    def __init__(
        self,
        supported_libraries: Iterable[str] = DEFAULT_SUPPORTED_LIBRARIES,
        replay_fused: bool = False,
        registry: Optional[OperatorRegistry] = None,
    ) -> None:
        self.supported_libraries: Set[str] = set(supported_libraries)
        self.replay_fused = replay_fused
        self.registry = registry if registry is not None else global_registry
        self._user_ops: Set[str] = set()

    # ------------------------------------------------------------------
    # The user-facing custom-operator interface (Section 4.3.3)
    # ------------------------------------------------------------------
    def register_custom_op(
        self,
        name: str,
        fn: Optional[Callable] = None,
        schema: Optional[str] = None,
    ) -> None:
        """Register a custom operator implementation for replay.

        If the operator already exists in the framework registry (its
        library is simply not enabled by default), registering its name is
        enough.  Otherwise both an implementation and a schema must be
        provided, and the operator is added to the registry.
        """
        if not self.registry.has(name):
            if fn is None or schema is None:
                raise ValueError(
                    f"operator {name!r} is not in the framework registry; "
                    "provide both an implementation and a schema to register it"
                )
            self.registry.register(
                OperatorDef(name=name, schema_str=schema, category=OpCategory.CUSTOM, fn=fn)
            )
        self._user_ops.add(name)

    def register_library(self, library: str) -> None:
        """Enable every operator of a library (e.g. ``"fairseq"``) for replay."""
        self.supported_libraries.add(library)

    @property
    def user_registered_ops(self) -> Set[str]:
        return set(self._user_ops)

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def is_supported(self, node: ETNode) -> bool:
        """True when the replayer can reproduce this operator node."""
        if not node.is_operator:
            return False
        category = categorize_node(node)
        if category == CATEGORY_FUSED and not self.replay_fused:
            return False
        if not self.registry.has(node.name):
            return False
        if node.name in self._user_ops:
            return True
        return node.namespace in self.supported_libraries

    def unsupported_reason(self, node: ETNode) -> Optional[str]:
        """Human-readable reason a node is not replayable (``None`` if it is)."""
        if not node.is_operator:
            return "annotation node (no operator schema)"
        if self.is_supported(node):
            return None
        category = categorize_node(node)
        if category == CATEGORY_FUSED and not self.replay_fused:
            return "fused operator (no reconstruction metadata in the ET yet)"
        if not self.registry.has(node.name):
            return "no implementation registered for this operator"
        return f"custom library {node.namespace!r} not registered for replay"
