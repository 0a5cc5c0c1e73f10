"""Managed-language migration baseline (PadMig, Section 6/7).

PadMig migrates Java applications between heterogeneous-ISA machines by
reflectively serialising the object graph, shipping it, and
deserialising on the other side.  This package models that pipeline —
object graphs, a reflection-based serialiser with realistic
throughputs, and a runtime that executes workloads at managed-language
speed — to reproduce the Figure 11 comparison (23 s Java vs 11 s
native for NPB IS B serial).
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".objects": "ManagedArray ManagedObject ObjectGraph",
    ".padmig": "PadMigRuntime",
    ".serializer": "ReflectionSerializer",
})
