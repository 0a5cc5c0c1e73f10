"""The vDSO migration-flag page (Section 5.2.1).

"The kernel scheduler interacts with the application through a shared
memory page between user- and kernel-space (vDSO).  When the scheduler
wants threads to migrate, it sets a flag on the page."  One word per
thread slot holds 0 (stay) or 1 + machine-index (migrate there); the
migration-point check is a single memory read.  A thread's slot is its
per-process index (``Thread.slot``), which also picks its stack region
and TLS block, so no two threads of a process share a flag whatever
their tids; ``VirtualMemoryMap.max_threads`` (512) caps it at one page
of 8-byte words.
"""

from typing import Optional

from repro.linker.layout import PAGE_SIZE
from repro.runtime.address_space import AddressSpace


class VdsoPage:
    """Per-process scheduler/application mailbox."""

    def __init__(self, space: AddressSpace, machine_order):
        self.space = space
        self.base = space.vm_map.vdso_base
        self.machine_order = list(machine_order)
        space.map_region(self.base, PAGE_SIZE, "[vdso]", aliased=True)

    def request_migration(self, slot: int, machine_name: str) -> None:
        """Flag the thread in ``slot`` to migrate to ``machine_name``."""
        index = self.machine_order.index(machine_name)
        self.space.write(self.base + slot * 8, 1 + index)

    def clear(self, slot: int) -> None:
        """Lower the flag of the thread in ``slot``."""
        self.space.write(self.base + slot * 8, 0)

    def read_target(self, slot: int) -> Optional[str]:
        """The migration-point flag check (one memory read)."""
        raw = int(self.space.read(self.base + slot * 8))
        if raw == 0:
            return None
        return self.machine_order[raw - 1]
