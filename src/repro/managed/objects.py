"""Managed object graphs.

A minimal Java-like heap: objects with typed fields, primitive arrays,
and references.  Enough structure for the serialiser to do a real graph
walk (cycles included) with realistic byte counts.
"""

import itertools
from typing import Dict, Iterator, List, Optional, Set

from repro.sim.numeric import ordered_sum

PRIMITIVE_BYTES = {"int": 4, "long": 8, "float": 4, "double": 8, "boolean": 1}
OBJECT_HEADER_BYTES = 16
ARRAY_HEADER_BYTES = 24
REFERENCE_BYTES = 8


class ManagedObject:
    """One heap object: named primitive fields + named references."""

    _ids = itertools.count(1)

    def __init__(self, class_name: str):
        self.object_id = next(self._ids)
        self.class_name = class_name
        self.fields: Dict[str, tuple] = {}  # name -> (prim_type, value)
        self.refs: Dict[str, Optional["ManagedObject"]] = {}

    def set_field(self, name: str, prim_type: str, value) -> None:
        if prim_type not in PRIMITIVE_BYTES:
            raise ValueError(f"unknown primitive {prim_type}")
        self.fields[name] = (prim_type, value)

    def set_ref(self, name: str, target) -> None:
        self.refs[name] = target

    @property
    def shallow_bytes(self) -> int:
        prim = ordered_sum(PRIMITIVE_BYTES[t] for t, _ in self.fields.values())
        return OBJECT_HEADER_BYTES + prim + REFERENCE_BYTES * len(self.refs)

    def __repr__(self) -> str:
        return f"ManagedObject({self.class_name}#{self.object_id})"


class ManagedArray(ManagedObject):
    """A primitive array."""

    def __init__(self, element_type: str, values: List):
        super().__init__(f"{element_type}[]")
        self.element_type = element_type
        self.values = list(values)

    @property
    def shallow_bytes(self) -> int:
        return ARRAY_HEADER_BYTES + PRIMITIVE_BYTES[self.element_type] * len(
            self.values
        )

    def __repr__(self) -> str:
        return f"ManagedArray({self.element_type}[{len(self.values)}])"


class ObjectGraph:
    """A rooted object graph (what PadMig serialises on migration)."""

    def __init__(self, roots: List[ManagedObject]):
        self.roots = list(roots)

    def reachable(self) -> Iterator[ManagedObject]:
        """Depth-first walk, each object once (handles cycles)."""
        seen: Set[int] = set()
        stack = list(self.roots)
        while stack:
            obj = stack.pop()
            if obj is None or obj.object_id in seen:
                continue
            seen.add(obj.object_id)
            yield obj
            stack.extend(t for t in obj.refs.values() if t is not None)

    def object_count(self) -> int:
        return sum(1 for _ in self.reachable())

    def total_bytes(self) -> int:
        return ordered_sum(obj.shallow_bytes for obj in self.reachable())
