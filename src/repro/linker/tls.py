"""Common thread-local storage layout.

ARM64 uses TLS "variant 1" (TCB first, positive offsets) and x86-64
"variant 2" (TLS block below the thread pointer).  The paper modified
the gold linker and musl so that "the TLS layout for all binaries was
changed to map symbols identically to the x86-64 TLS symbol mapping".
We reproduce that: one :class:`TlsLayout` computed once, used verbatim
by every ISA — making the per-thread local data L_i identical across
ISAs (L_i^IA = L_i^IB in the model).
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.ir.function import GlobalVar
from repro.isa.types import type_align, type_size
from repro.linker.layout import align_up

TCB_SIZE = 16  # two pointers, as in variant-2 TCBs


@dataclass
class TlsLayout:
    """Offsets of thread-local symbols relative to the thread pointer.

    Offsets are negative (x86-64 variant-2 mapping: the TLS block sits
    below the thread pointer), and identical on every ISA.
    """

    offsets: Dict[str, int] = field(default_factory=dict)
    block_size: int = 0
    # Initial values: symbol -> list of element init values (.tdata).
    initial: Dict[str, List] = field(default_factory=dict)
    element_size: Dict[str, int] = field(default_factory=dict)
    element_count: Dict[str, int] = field(default_factory=dict)

    def address_of(self, thread_pointer: int, name: str) -> int:
        return thread_pointer + self.offsets[name]

    def symbols(self) -> List[str]:
        return sorted(self.offsets, key=lambda n: self.offsets[n])


def build_tls_layout(globals_: Iterable[GlobalVar]) -> TlsLayout:
    """Lay out all ``thread_local`` globals per the x86-64 mapping.

    .tdata symbols (initialised) come first, then .tbss, mirroring how
    gold merges TLS sections; the whole block is 16-byte aligned and
    addressed at negative offsets from the thread pointer.
    """
    tls_vars = [g for g in globals_ if g.thread_local]
    tdata = [g for g in tls_vars if g.init]
    tbss = [g for g in tls_vars if not g.init]

    layout = TlsLayout()
    cursor = 0
    for gv in tdata + tbss:
        cursor = align_up(cursor, type_align(gv.vt))
        layout.offsets[gv.name] = cursor  # provisional, from block start
        layout.element_size[gv.name] = type_size(gv.vt)
        layout.element_count[gv.name] = gv.count
        if gv.init:
            layout.initial[gv.name] = list(gv.init)
        cursor += gv.size
    block = align_up(cursor, 16)
    layout.block_size = block
    # Rebase: variant-2 offsets are negative from the thread pointer.
    layout.offsets = {
        name: offset - block for name, offset in layout.offsets.items()
    }
    return layout
