"""The process address space.

One address space object exists per process and is *shared* by every
kernel — the single-working-environment illusion.  What differs between
kernels is page *residency*, tracked by the hDSM service
(:mod:`repro.kernel.dsm`); the address space itself is the physical
store.

Memory is access-granular: a value written at address A is read back at
address A.  Both modelled ISAs are little-endian LP64 with identical
primitive sizes, so no byte-level representation is needed — this is
exactly the paper's common-data-format argument, which lets pages move
between ISAs "without any transformation".
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.linker.layout import VirtualMemoryMap, page_of

Word = Union[int, float]


@dataclass
class Vma:
    """A virtual memory area: [start, end), with region semantics."""

    start: int
    end: int
    name: str
    # 'aliased' regions (.text, vDSO) have a per-ISA local backing and
    # are never transferred by the DSM.
    aliased: bool = False
    writable: bool = True

    def __contains__(self, addr: int) -> bool:
        return self.start <= addr < self.end

    @property
    def pages(self) -> range:
        return range(page_of(self.start), page_of(self.end - 1) + 1)

    def __repr__(self) -> str:
        flags = ("A" if self.aliased else "-") + ("W" if self.writable else "R")
        return f"Vma({self.name} [{self.start:#x},{self.end:#x}) {flags})"


class SegfaultError(Exception):
    """Access to an unmapped address."""

    def __init__(self, addr: int, op: str):
        self.addr = addr
        super().__init__(f"{op} at unmapped address {addr:#x}")


class AddressSpace:
    """Sparse value-granular memory plus the VMA map."""

    def __init__(self, vm_map: Optional[VirtualMemoryMap] = None):
        self.vm_map = vm_map if vm_map is not None else VirtualMemoryMap()
        self._mem: Dict[int, Word] = {}
        self._vmas: List[Vma] = []
        # Access hook installed by the DSM: called with (page, is_write)
        # before every access; returns the fault service time in seconds.
        self.page_hook = None

    # ------------------------------------------------------------- vmas

    def map_region(
        self,
        start: int,
        size: int,
        name: str,
        aliased: bool = False,
        writable: bool = True,
    ) -> Vma:
        end = start + size
        for vma in self._vmas:
            if start < vma.end and vma.start < end:
                raise ValueError(f"mapping {name} overlaps {vma}")
        vma = Vma(start, end, name, aliased, writable)
        self._vmas.append(vma)
        self._vmas.sort(key=lambda v: v.start)
        return vma

    def vma_at(self, addr: int) -> Optional[Vma]:
        for vma in self._vmas:
            if addr in vma:
                return vma
        return None

    def vmas(self) -> List[Vma]:
        return list(self._vmas)

    def is_mapped(self, addr: int) -> bool:
        return self.vma_at(addr) is not None

    def aliased_pages(self) -> set:
        pages = set()
        for vma in self._vmas:
            if vma.aliased:
                pages.update(vma.pages)
        return pages

    # ----------------------------------------------------------- access

    def read(self, addr: int) -> Word:
        """Read the value at ``addr`` (0 if never written)."""
        return self._mem.get(addr, 0)

    def write(self, addr: int, value: Word) -> None:
        self._mem[addr] = value

    def read_checked(self, addr: int) -> Word:
        if not self.is_mapped(addr):
            raise SegfaultError(addr, "read")
        return self._mem.get(addr, 0)

    def write_checked(self, addr: int, value: Word) -> None:
        vma = self.vma_at(addr)
        if vma is None:
            raise SegfaultError(addr, "write")
        if not vma.writable:
            raise SegfaultError(addr, "write to read-only region")
        self._mem[addr] = value

    # -------------------------------------------------------- snapshots

    def snapshot_range(self, lo: int, hi: int) -> Dict[int, Word]:
        """All explicitly-stored words in [lo, hi) — for undoable
        speculative rewrites (e.g. the validator's A->B->A round trip)."""
        return {a: v for a, v in self._mem.items() if lo <= a < hi}

    def restore_range(self, lo: int, hi: int, snapshot: Dict[int, Word]) -> None:
        """Make [lo, hi) bit-identical to a prior :meth:`snapshot_range`."""
        for addr in [a for a in self._mem if lo <= a < hi]:
            del self._mem[addr]
        self._mem.update(snapshot)

    # ------------------------------------------------------------ bulk

    def write_words(self, base: int, values, stride: int = 8) -> None:
        addr = base
        for value in values:
            self._mem[addr] = value
            addr += stride

    def read_words(self, base: int, count: int, stride: int = 8) -> List[Word]:
        return [self._mem.get(base + i * stride, 0) for i in range(count)]
