"""The symbol alignment engine (the paper's Java alignment tool).

Given one object per ISA, produce a *common* layout: every symbol at
the same virtual address in every binary.  The tool "aligns symbols in
loadable ELF sections by progressively calculating their addresses in
virtual memory"; function symbols are padded so their sizes are
"equivalent across binaries for all target architectures".
"""

from dataclasses import dataclass, field
from typing import Dict, List

from repro.linker.elf import IsaObject, LOADABLE_SECTIONS
from repro.linker.layout import VirtualMemoryMap, align_up
from repro.sim.numeric import ordered_sum


@dataclass(frozen=True)
class PlacedSymbol:
    """One symbol in the common layout."""

    name: str
    section: str
    address: int
    padded_size: int
    # Real (unpadded) size per ISA; data symbols have equal sizes.
    sizes: Dict[str, int] = field(default_factory=dict, hash=False)

    @property
    def padding(self) -> Dict[str, int]:
        return {isa: self.padded_size - size for isa, size in self.sizes.items()}

    @property
    def end(self) -> int:
        return self.address + self.padded_size


@dataclass
class AlignedLayout:
    """The common layout produced by symbol alignment."""

    symbols: Dict[str, PlacedSymbol] = field(default_factory=dict)
    section_extent: Dict[str, int] = field(default_factory=dict)
    aligned: bool = True

    def address_of(self, name: str) -> int:
        return self.symbols[name].address

    def in_section(self, section: str) -> List[PlacedSymbol]:
        placed = [s for s in self.symbols.values() if s.section == section]
        return sorted(placed, key=lambda s: s.address)

    def total_padding(self, isa_name: str, section: str = ".text") -> int:
        return ordered_sum(
            s.padded_size - s.sizes.get(isa_name, s.padded_size)
            for s in self.in_section(section)
        )

    def footprint(self, isa_name: str, section: str = ".text", padded: bool = True) -> int:
        """Bytes of ``section`` occupied on ``isa_name``.

        Padded footprint is what the instruction cache sees after
        alignment; unpadded is the natural per-ISA footprint.
        """
        if padded:
            return ordered_sum(s.padded_size for s in self.in_section(section))
        return ordered_sum(
            s.sizes.get(isa_name, s.padded_size) for s in self.in_section(section)
        )


def _check_same_symbols(objects: List[IsaObject], section: str) -> List[str]:
    """All ISAs must define the same symbols in the same order."""
    reference = objects[0].symbol_names(section)
    for obj in objects[1:]:
        names = obj.symbol_names(section)
        if names != reference:
            raise ValueError(
                f"section {section}: symbol lists differ between "
                f"{objects[0].isa_name} and {obj.isa_name}"
            )
    return reference


def align_symbols(
    objects: List[IsaObject],
    vm_map: VirtualMemoryMap,
    align_functions: bool = True,
) -> AlignedLayout:
    """Compute the common layout across all ISAs' objects.

    With ``align_functions=False`` the layout is computed per the first
    object only (no cross-ISA padding) — the "unaligned" baseline of
    Table 1.
    """
    if not objects:
        raise ValueError("no objects to align")
    layout = AlignedLayout(aligned=align_functions)

    for section in LOADABLE_SECTIONS:
        if not any(section in obj.sections for obj in objects):
            continue
        with_section = [obj for obj in objects if section in obj.sections]
        names = _check_same_symbols(with_section, section)
        cursor = vm_map.section_base(section)
        if section == ".tbss" and ".tdata" in layout.section_extent:
            cursor = layout.section_extent[".tdata"]
        for name in names:
            per_isa = {
                obj.isa_name: obj.find(name).size for obj in with_section
            }
            sym0 = with_section[0].find(name)
            if align_functions:
                padded = max(per_isa.values())
            else:
                padded = per_isa[with_section[0].isa_name]
            padded = max(align_up(padded, sym0.align), sym0.align)
            cursor = align_up(cursor, sym0.align)
            layout.symbols[name] = PlacedSymbol(
                name=name,
                section=section,
                address=cursor,
                padded_size=padded,
                sizes=per_isa,
            )
            cursor += padded
        layout.section_extent[section] = cursor

    _check_no_overlap(layout)
    return layout


def _check_no_overlap(layout: AlignedLayout) -> None:
    placed = sorted(layout.symbols.values(), key=lambda s: s.address)
    for a, b in zip(placed, placed[1:]):
        if a.end > b.address:
            raise ValueError(
                f"symbol overlap: {a.name} [{a.address:#x},{a.end:#x}) and "
                f"{b.name} at {b.address:#x}"
            )
