"""The vDSO migration-flag page (Section 5.2.1).

"The kernel scheduler interacts with the application through a shared
memory page between user- and kernel-space (vDSO).  When the scheduler
wants threads to migrate, it sets a flag on the page."  One word per
thread slot holds 0 (stay) or 1 + machine-index (migrate there); the
migration-point check is a single memory read.
"""

from typing import Optional

from repro.linker.layout import PAGE_SIZE
from repro.runtime.address_space import AddressSpace

MAX_SLOTS = PAGE_SIZE // 8


class VdsoPage:
    """Per-process scheduler/application mailbox."""

    def __init__(self, space: AddressSpace, machine_order):
        self.space = space
        self.base = space.vm_map.vdso_base
        self.machine_order = list(machine_order)
        space.map_region(self.base, PAGE_SIZE, "[vdso]", aliased=True)

    def _slot(self, tid: int) -> int:
        return self.base + (tid % MAX_SLOTS) * 8

    def request_migration(self, tid: int, machine_name: str) -> None:
        index = self.machine_order.index(machine_name)
        self.space.write(self._slot(tid), 1 + index)

    def clear(self, tid: int) -> None:
        self.space.write(self._slot(tid), 0)

    def read_target(self, tid: int) -> Optional[str]:
        """The migration-point flag check (one memory read)."""
        raw = int(self.space.read(self._slot(tid)))
        if raw == 0:
            return None
        return self.machine_order[raw - 1]
