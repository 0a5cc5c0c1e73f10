"""The toolchain driver: IR module -> multi-ISA binary (Figure 2).

Pipeline: validate, insert migration points, assign call-site ids,
lower per ISA, align symbols into the common layout, lay out TLS per
the x86-64 mapping, and bundle everything into a
:class:`MultiIsaBinary` the heterogeneous binary loader can load on any
kernel.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compiler.codegen import MachineFunction, lower_function
from repro.compiler.migration_points import (
    DEFAULT_TARGET_GAP,
    insert_boundary_points,
    insert_profiled_points,
)
from repro.ir.analysis import liveness
from repro.ir.function import Module
from repro.ir.instructions import Call, InlineAsm, MigPoint, Syscall
from repro.ir.validate import validate_module


class UnsupportedFeatureError(Exception):
    """The module uses a feature the migratable toolchain rejects
    (Section 5.4): inline assembly defeats the live-variable analysis.
    Build with ``allow_unmigratable=True`` to compile anyway — the
    affected functions then carry no migration points and must not be
    live on the stack when a migration is attempted."""
from repro.isa import ALL_ISAS, Isa
from repro.isa.types import type_align
from repro.linker.alignment import AlignedLayout, align_symbols
from repro.linker.elf import IsaObject, Symbol
from repro.linker.layout import DEFAULT_VM_MAP, VirtualMemoryMap
from repro.linker.linker_script import render_linker_script
from repro.linker.tls import TlsLayout, build_tls_layout


@dataclass
class CompiledBinary:
    """One ISA's executable: machine functions plus layout artifacts."""

    isa: Isa
    machine_functions: Dict[str, MachineFunction]
    object: IsaObject
    linker_script: str = ""

    def function(self, name: str) -> MachineFunction:
        return self.machine_functions[name]


@dataclass
class MultiIsaBinary:
    """The multi-ISA binary: 'one executable file per ISA' sharing a
    common address-space layout."""

    module: Module
    binaries: Dict[str, CompiledBinary]
    layout: AlignedLayout
    unaligned_layouts: Dict[str, AlignedLayout]
    tls: TlsLayout
    vm_map: VirtualMemoryMap
    global_addresses: Dict[str, int] = field(default_factory=dict)
    migration_point_count: int = 0
    site_count: int = 0
    # Build intent, recorded for the static analyzer (repro.analyze):
    # the migration-point insertion level and the responsiveness target
    # the coverage pass lints against.
    point_mode: str = "profiled"
    target_gap: int = DEFAULT_TARGET_GAP

    @property
    def isa_names(self) -> List[str]:
        return sorted(self.binaries)

    def binary_for(self, isa_name: str) -> CompiledBinary:
        try:
            return self.binaries[isa_name]
        except KeyError:
            raise KeyError(
                f"binary not compiled for {isa_name}; have {self.isa_names}"
            ) from None

    def machine_function(self, isa_name: str, fn_name: str) -> MachineFunction:
        return self.binary_for(isa_name).function(fn_name)

    def address_of(self, symbol: str) -> int:
        """Common virtual address of a symbol (function or global)."""
        return self.layout.address_of(symbol)

    def text_footprint(self, isa_name: str, padded: bool = True) -> int:
        return self.layout.footprint(isa_name, ".text", padded)

    def function_containing(self, isa_name: str, addr: int):
        """The machine function whose code range contains ``addr``."""
        for mf in self.binary_for(isa_name).machine_functions.values():
            if mf.text_addr <= addr < mf.text_addr + mf.code_size:
                return mf
        raise KeyError(f"no function at {addr:#x} on {isa_name}")


class Toolchain:
    """Compiles IR modules into multi-ISA binaries.

    ``migration_points`` selects the insertion level:

    * ``'none'`` — bare binary (used for overhead baselines);
    * ``'boundary'`` — function entry/exit only (the figures' "Pre");
    * ``'profiled'`` — boundary plus strip-mined work bursts ("Post").
    """

    def __init__(
        self,
        isas: Optional[List[Isa]] = None,
        migration_points: str = "profiled",
        target_gap: int = DEFAULT_TARGET_GAP,
        allow_unmigratable: bool = False,
        opt_level: int = 0,
        lint: bool = False,
    ):
        self.isas = list(isas) if isas is not None else list(ALL_ISAS.values())
        if not self.isas:
            raise ValueError("at least one target ISA required")
        if migration_points not in ("none", "boundary", "profiled"):
            raise ValueError(f"bad migration_points {migration_points!r}")
        self.migration_points = migration_points
        self.target_gap = target_gap
        self.allow_unmigratable = allow_unmigratable
        if opt_level not in (0, 1, 2):
            raise ValueError(f"bad opt_level {opt_level}")
        self.opt_level = opt_level
        # Opt-in link-time lint: run the repro.analyze migration-safety
        # passes over the finished binary and refuse to ship one with
        # error-severity diagnostics.
        self.lint = lint

    def build(self, module: Module) -> MultiIsaBinary:
        validate_module(module)
        self._check_supported(module)

        if self.opt_level >= 1:
            # "The toolchain runs standard compiler optimizations ...
            # over LLVM's intermediate representation" before the
            # back-ends; migration points go in afterwards.
            from repro.compiler.optimize import optimize_module

            optimize_module(module)
            validate_module(module)

        inserted = 0
        if self.migration_points in ("boundary", "profiled"):
            inserted += insert_boundary_points(module)
        if self.migration_points == "profiled":
            inserted += insert_profiled_points(module, self.target_gap)

        site_count = _assign_site_ids(module)
        validate_module(module)  # insertion must keep the module well-formed

        binaries: Dict[str, CompiledBinary] = {}
        objects: List[IsaObject] = []
        live = {name: liveness(fn) for name, fn in module.functions.items()}
        for isa in self.isas:
            mfs = {
                name: lower_function(fn, isa, live[name])
                for name, fn in module.functions.items()
            }
            obj = _build_object(module, isa, mfs)
            objects.append(obj)
            binaries[isa.name] = CompiledBinary(
                isa=isa, machine_functions=mfs, object=obj
            )

        layout = align_symbols(objects, DEFAULT_VM_MAP)
        unaligned = {
            obj.isa_name: align_symbols([obj], DEFAULT_VM_MAP, align_functions=False)
            for obj in objects
        }
        for binary in binaries.values():
            binary.linker_script = render_linker_script(layout, binary.isa.name)
            for name, mf in binary.machine_functions.items():
                mf.text_addr = layout.address_of(name)

        tls = build_tls_layout(module.globals.values())
        global_addresses = {
            name: layout.address_of(name)
            for name, gv in module.globals.items()
            if not gv.thread_local
        }

        binary = MultiIsaBinary(
            module=module,
            binaries=binaries,
            layout=layout,
            unaligned_layouts=unaligned,
            tls=tls,
            vm_map=DEFAULT_VM_MAP,
            global_addresses=global_addresses,
            migration_point_count=inserted,
            site_count=site_count,
            point_mode=self.migration_points,
            target_gap=self.target_gap,
        )
        if self.lint:
            self._lint(binary)
        return binary

    def _lint(self, binary: "MultiIsaBinary") -> None:
        """Fail-on-error migration-safety lint at link time."""
        from repro.analyze import LintError, run_lint
        from repro.telemetry.lintlog import default_lint_log

        report = run_lint(binary)
        default_lint_log().note_report(report)
        if report.error_count:
            raise LintError(report)


    def _check_supported(self, module: Module) -> None:
        if self.allow_unmigratable or self.migration_points == "none":
            return
        offenders = []
        for name, fn in module.functions.items():
            if fn.library:
                continue  # library code is expected to be opaque
            for _, _, instr in fn.instructions():
                if isinstance(instr, InlineAsm):
                    offenders.append(name)
                    break
        if offenders:
            raise UnsupportedFeatureError(
                f"inline assembly in {sorted(offenders)}: the live-value "
                f"analysis cannot see through it"
            )


def _assign_site_ids(module: Module) -> int:
    """Give every call site / syscall / migration point a unique id.

    The ids are shared by every ISA's stackmaps — they are the paper's
    ISA-independent return-address mapping.
    """
    next_id = 0
    for fn in module.functions.values():
        for _, _, instr in fn.instructions():
            if isinstance(instr, (Call, Syscall, MigPoint)):
                instr.site_id = next_id
                next_id += 1
    return next_id


def _build_object(
    module: Module, isa: Isa, mfs: Dict[str, MachineFunction]
) -> IsaObject:
    obj = IsaObject(isa_name=isa.name)
    for name in sorted(mfs):
        obj.add_symbol(
            Symbol(
                name=name,
                section=".text",
                size=mfs[name].code_size,
                align=16,
                is_function=True,
            )
        )
    for name in sorted(module.globals):
        gv = module.globals[name]
        if gv.thread_local:
            continue  # TLS handled by repro.linker.tls
        obj.add_symbol(
            Symbol(
                name=name,
                section=gv.section,
                size=gv.size,
                align=max(type_align(gv.vt), 8),
            )
        )
    return obj
