"""The heterogeneous binary loader (Section 5.1).

Loads a multi-ISA binary into a fresh address space: every data symbol
at its common address, the per-ISA ``.text`` *aliased* into the same
virtual range (each kernel executes its own ISA's machine code behind
identical addresses), the vDSO page, the heap, and the TLS template.
"When execution migrates between kernels, the machine code mappings are
switched to those of the destination ISA" — with aliased text this is a
page-table flip, not a copy, so the loader marks text pages as
never-transferred for the DSM.
"""

from repro import validate
from repro.compiler.toolchain import MultiIsaBinary
from repro.isa.types import type_size
from repro.kernel.process import Process
from repro.kernel.vdso import VdsoPage
from repro.linker.layout import PAGE_SIZE, align_up
from repro.runtime.address_space import AddressSpace
from repro.runtime.heap import HeapAllocator

TLS_AREA_GAP = 0x10000  # thread TLS blocks live above the template


def load_binary(
    binary: MultiIsaBinary,
    pid: int,
    home_kernel: str,
    messaging,
    machine_order,
    dsm_backup: bool = False,
) -> Process:
    """Create a process image for ``binary`` homed on ``home_kernel``."""
    space = AddressSpace(binary.vm_map)

    _map_sections(space, binary)
    _init_globals(space, binary)

    heap = HeapAllocator(space)
    process = Process(pid, binary, space, heap, home_kernel)
    process.vdso = VdsoPage(space, machine_order)
    # Validated DSM when REPRO_VALIDATE is on, plain service otherwise.
    process.dsm = validate.make_dsm_service(
        space,
        messaging,
        home_kernel,
        machines=list(machine_order),
        backup=dsm_backup,
    )
    space.page_hook = None  # engine wires DSM access charging itself
    return process


def _map_sections(space: AddressSpace, binary: MultiIsaBinary) -> None:
    layout = binary.layout
    vm = binary.vm_map
    for section, aliased, writable in (
        (".text", True, False),
        (".rodata", False, False),
        (".data", False, True),
        (".bss", False, True),
    ):
        placed = layout.in_section(section)
        if not placed:
            continue
        start = vm.section_base(section)
        end = max(s.end for s in placed)
        space.map_region(
            start, align_up(end - start, PAGE_SIZE), section, aliased=aliased,
            writable=writable,
        )
    # TLS template + per-thread TLS blocks share one region.
    tls_region_size = TLS_AREA_GAP + vm.max_threads * max(
        binary.tls.block_size, 64
    )
    space.map_region(
        vm.tls_template_base,
        align_up(tls_region_size, PAGE_SIZE),
        "tls",
    )
    # Stacks: one region covering all thread stacks.
    stack_low = vm.stack_top - vm.max_threads * vm.stack_size
    space.map_region(stack_low, vm.stack_top - stack_low, "stack")


def _init_globals(space: AddressSpace, binary: MultiIsaBinary) -> None:
    for name, gv in binary.module.globals.items():
        if gv.thread_local:
            continue
        base = binary.global_addresses[name]
        if gv.init:
            space.write_words(base, gv.init, stride=type_size(gv.vt))


def thread_pointer_for(binary: MultiIsaBinary, stack_index: int) -> int:
    """TLS thread pointer for the thread using ``stack_index``.

    Identical on every ISA (deterministic function of the thread slot),
    so L_i's address — like everything else — survives migration.
    """
    vm = binary.vm_map
    block = max(binary.tls.block_size, 64)
    return (
        vm.tls_template_base
        + TLS_AREA_GAP
        + stack_index * block
        + binary.tls.block_size
    )


def init_thread_tls(space: AddressSpace, binary: MultiIsaBinary, tp: int) -> None:
    """Copy the .tdata template into a new thread's TLS block."""
    tls = binary.tls
    for name, values in tls.initial.items():
        base = tp + tls.offsets[name]
        space.write_words(base, values, stride=tls.element_size[name])
