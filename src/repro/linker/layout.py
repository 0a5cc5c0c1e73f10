"""The virtual memory map shared by every ISA's binary.

One fixed map (section base addresses, heap and stack placement) is
used for all ISAs — a precondition for the identity mapping of
per-process state (P^IA = P^IB in the paper's model).
"""

from dataclasses import dataclass

PAGE_SIZE = 4096
THREAD_CONTEXT_BYTES = 4096  # a checkpointed thread's register/TLS context
WORD = 8


def page_of(addr: int) -> int:
    return addr // PAGE_SIZE


def align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class VirtualMemoryMap:
    """Base addresses of every region of the common address space."""

    text_base: int = 0x0000_0000_0040_0000
    rodata_base: int = 0x0000_0000_0060_0000
    data_base: int = 0x0000_0000_0080_0000
    bss_base: int = 0x0000_0000_00A0_0000
    tls_template_base: int = 0x0000_0000_00C0_0000
    vdso_base: int = 0x0000_0000_00E0_0000
    heap_base: int = 0x0000_0000_1000_0000
    heap_limit: int = 0x0000_0000_8000_0000
    stack_top: int = 0x0000_7FFF_F000_0000
    stack_size: int = 0x0000_0000_0010_0000  # 1 MiB per thread
    max_threads: int = 512

    def section_base(self, section: str) -> int:
        bases = {
            ".text": self.text_base,
            ".rodata": self.rodata_base,
            ".data": self.data_base,
            ".bss": self.bss_base,
            ".tdata": self.tls_template_base,
            ".tbss": self.tls_template_base,
        }
        try:
            return bases[section]
        except KeyError:
            raise KeyError(f"unknown section {section!r}") from None

    def stack_region(self, thread_index: int) -> tuple:
        """(low, high) bounds of thread ``thread_index``'s stack."""
        if not 0 <= thread_index < self.max_threads:
            raise ValueError(f"thread index {thread_index} out of range")
        high = self.stack_top - thread_index * self.stack_size
        return (high - self.stack_size, high)

    def is_stack_address(self, addr: int) -> bool:
        low = self.stack_top - self.max_threads * self.stack_size
        return low <= addr < self.stack_top


DEFAULT_VM_MAP = VirtualMemoryMap()
