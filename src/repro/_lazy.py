"""One lazy export table per package (PEP 562).

A package ``__init__.py`` names what it exports once, grouped by the
module that defines it, and serves the names through the module
``__getattr__`` that :func:`lazy_exports` builds.  Importing a package
then imports none of its modules: ``import repro.fleet.simulator``
loads what the fleet runs, not the compiler, kernel and runtime that
other packages re-export.
"""

import importlib
import sys


def lazy_exports(package, table):
    """The module ``__getattr__`` of ``package`` that serves ``table``.

    ``table`` maps a relative module path (``".engine"``) to the
    space-separated names the package exports from it.  The first access
    to a name imports its module and binds the name on the package, so
    later accesses are plain attribute reads.  Any other name raises
    :class:`AttributeError`, so ``from package import submodule`` still
    falls back to importing the submodule.
    """
    where = {name: module for module, names in table.items() for name in names.split()}

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
