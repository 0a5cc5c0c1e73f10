"""A minimal ELF-like object model.

Each ISA back-end produces one :class:`IsaObject` per module: the set
of symbols (functions and globals) with that ISA's sizes.  Data symbols
have identical sizes on every ISA (common primitive layout); function
symbols differ, which is what the alignment tool must reconcile.
"""

from dataclasses import dataclass, field
from typing import Dict, List

LOADABLE_SECTIONS = (".text", ".rodata", ".data", ".bss", ".tdata", ".tbss")


@dataclass(frozen=True)
class Symbol:
    """One linker symbol."""

    name: str
    section: str
    size: int
    align: int = 8
    is_function: bool = False

    def __post_init__(self):
        if self.section not in LOADABLE_SECTIONS:
            raise ValueError(f"symbol {self.name} in unknown section {self.section}")
        if self.size < 0:
            raise ValueError(f"symbol {self.name} has negative size")


@dataclass
class Section:
    """A section with its symbols in layout order."""

    name: str
    symbols: List[Symbol] = field(default_factory=list)

    def add(self, symbol: Symbol) -> None:
        if symbol.section != self.name:
            raise ValueError(
                f"symbol {symbol.name} belongs to {symbol.section}, not {self.name}"
            )
        self.symbols.append(symbol)


@dataclass
class IsaObject:
    """All symbols of one module compiled for one ISA."""

    isa_name: str
    sections: Dict[str, Section] = field(default_factory=dict)

    def add_symbol(self, symbol: Symbol) -> None:
        section = self.sections.setdefault(symbol.section, Section(symbol.section))
        section.add(symbol)

    def symbol_names(self, section: str) -> List[str]:
        if section not in self.sections:
            return []
        return [s.name for s in self.sections[section].symbols]

    def find(self, name: str) -> Symbol:
        for section in self.sections.values():
            for symbol in section.symbols:
                if symbol.name == name:
                    return symbol
        raise KeyError(f"symbol {name} not in {self.isa_name} object")
