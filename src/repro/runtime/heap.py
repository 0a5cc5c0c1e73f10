"""A small malloc: first-fit free list over a brk region.

The workloads allocate their arrays through ``sbrk``/``free`` syscalls
backed by this allocator.  Heap addresses are part of the common layout
(identical on every ISA), so heap pointers survive migration unchanged
— only *pages* move, via the hDSM.
"""

from typing import Dict, List, Tuple

from repro.linker.layout import align_up
from repro.runtime.address_space import AddressSpace
from repro.sim.numeric import ordered_sum


class OutOfMemoryError(Exception):
    pass


class HeapAllocator:
    """First-fit allocator with coalescing free."""

    GRAIN = 16

    def __init__(self, space: AddressSpace):
        self.space = space
        self.base = space.vm_map.heap_base
        self.limit = space.vm_map.heap_limit
        self._brk = self.base
        # Free list of (start, size), kept sorted and coalesced.
        self._free: List[Tuple[int, int]] = []
        self._allocated: Dict[int, int] = {}
        space.map_region(self.base, self.limit - self.base, "heap")

    @property
    def brk(self) -> int:
        return self._brk

    def allocated_bytes(self) -> int:
        return ordered_sum(self._allocated.values())

    def allocations(self) -> Dict[int, int]:
        """Live allocations as ``{start_address: size}`` (a copy).

        The race-soundness harness uses this to map faulting heap pages
        back to the allocation (and from there to the IR symbol whose
        published pointer global holds the address).
        """
        return dict(self._allocated)

    def alloc(self, size: int) -> int:
        if size <= 0:
            raise ValueError(f"allocation of {size} bytes")
        size = align_up(size, self.GRAIN)
        for i, (start, free_size) in enumerate(self._free):
            if free_size >= size:
                rest = free_size - size
                if rest:
                    self._free[i] = (start + size, rest)
                else:
                    del self._free[i]
                self._allocated[start] = size
                return start
        if self._brk + size > self.limit:
            raise OutOfMemoryError(f"heap exhausted allocating {size} bytes")
        start = self._brk
        self._brk += size
        self._allocated[start] = size
        return start

    def free(self, addr: int) -> None:
        size = self._allocated.pop(addr, None)
        if size is None:
            raise ValueError(f"free of unallocated address {addr:#x}")
        self._free.append((addr, size))
        self._coalesce()

    def _coalesce(self) -> None:
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for start, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                prev_start, prev_size = merged[-1]
                merged[-1] = (prev_start, prev_size + size)
            else:
                merged.append((start, size))
        # Return a trailing free block to the brk.
        if merged and merged[-1][0] + merged[-1][1] == self._brk:
            start, _ = merged.pop()
            self._brk = start
        self._free = merged
