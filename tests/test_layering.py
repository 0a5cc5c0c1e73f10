"""The layering guard: an import loads only the packages it runs.

The rules are the table under "Layering" in ``docs/architecture.md``.
Each import runs in a fresh interpreter, so nothing an earlier test
imported can hide an edge.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGES = sorted(p.parent.name for p in (SRC / "repro").glob("*/__init__.py"))
#: Loaded by every import: the root package and its export helper.
ALWAYS = {"", "_lazy"}
CODE = "{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"


def _rules():
    """``(statement, allowed, forbidden)`` per import the table names;
    exactly one of ``allowed`` and ``forbidden`` is a set."""
    text = (ROOT / "docs" / "architecture.md").read_text()
    section = text.split("\n## Layering\n", 1)[1].split("\n## ", 1)[0]
    rules = []
    for line in section.splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) != 3 or "`" not in cells[0]:
            continue
        statements, allowed, forbidden = (re.findall(r"`([^`]+)`", c) for c in cells)
        for statement in statements:
            for pkg in PACKAGES if "<pkg>" in statement else [""]:
                names = {name.replace("<pkg>", pkg) for name in forbidden or allowed}
                rules.append((statement.replace("<pkg>", pkg),
                              None if forbidden else names,
                              names if forbidden else None))
    return rules


RULES = _rules()


def test_table_names_real_packages():
    assert len(RULES) > len(PACKAGES)
    for _, allowed, forbidden in RULES:
        assert (allowed if forbidden is None else forbidden) <= set(PACKAGES)


@pytest.mark.parametrize("statement, allowed, forbidden", RULES,
                         ids=[rule[0] for rule in RULES])
def test_import_loads_only_its_layers(statement, allowed, forbidden):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", CODE.format(statement=statement)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded = {name.split(".")[1] if "." in name else ""
              for name in json.loads(out.stdout)
              if name == "repro" or name.startswith("repro.")}
    loaded -= ALWAYS
    bad = loaded & forbidden if forbidden is not None else loaded - allowed
    assert not bad, f"{statement} loads {sorted(bad)}"


def test_unknown_name_raises_attribute_error():
    import repro.serving

    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        repro.serving.nothing
    from repro.serving import engine  # not exported: the submodule

    assert engine.__name__ == "repro.serving.engine"


def _export_tables():
    """``(package, module key)`` per entry of every ``lazy_exports`` table."""
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        for node in ast.walk(ast.parse(init.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "lazy_exports"):
                for key in node.args[1].keys:
                    yield package, key.value


def test_export_tables_name_their_own_modules():
    """No package serves another package's names: every key of a
    ``lazy_exports`` table is a module inside the package."""
    entries = list(_export_tables())
    assert len(entries) > len(PACKAGES)
    bad = []
    for package, key in entries:
        path = SRC.joinpath(*package.split("."), *key.lstrip(".").split("."))
        inside = key.startswith(".") and not key.startswith("..")
        if not inside or not path.with_suffix(".py").is_file():
            bad.append(f"{package}: {key!r}")
    assert not bad, bad
