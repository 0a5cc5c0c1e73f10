"""Documentation lint: the docs reference real files and real APIs,
``src/`` holds nothing that nothing uses, and it adds every total in
one order."""

import ast
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

FLAG = re.compile(r"(--[a-z][\w-]+)")
#: A script invocation: the path, then the rest of the line up to a
#: closing backtick.  Flags in the rest belong to the script.
SCRIPT_CALL = re.compile(r"((?:tools|bench)/\w+\.py)([^`\n]*)")


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def _cli_flags(text: str) -> set:
    """Flags quoted outside script invocations (``python -m repro``)."""
    return set(FLAG.findall(SCRIPT_CALL.sub("", text)))


def _script_flags(text: str) -> set:
    """(script, flag) for every flag quoted after a script path."""
    return {(script, flag) for script, rest in SCRIPT_CALL.findall(text)
            for flag in FLAG.findall(rest)}


class TestReferencedFilesExist:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_benchmark_paths_exist(self, doc):
        text = _read(doc)
        for match in re.findall(r"`(benchmarks/[\w/]+\.py)`", text):
            assert (ROOT / match).exists(), f"{doc} references missing {match}"

    def test_readme_example_paths_exist(self):
        text = _read("README.md")
        for match in re.findall(r"python (examples/[\w]+\.py)", text):
            assert (ROOT / match).exists(), f"README references missing {match}"

    def test_readme_doc_links_exist(self):
        text = _read("README.md")
        for name in ("DESIGN.md", "EXPERIMENTS.md", "docs/model.md",
                     "docs/calibration.md", "docs/observability.md",
                     "docs/architecture.md"):
            assert name in text
            assert (ROOT / name).exists()

    def test_design_mentions_every_package(self):
        text = _read("DESIGN.md")
        src = ROOT / "src" / "repro"
        for pkg in sorted(p.parent.name for p in src.glob("*/__init__.py")):
            assert f"`{pkg}/`" in text or pkg in text, (
                f"DESIGN.md does not mention package {pkg}"
            )


class TestReferencedModulesImport:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
    def test_repro_dotted_paths_import(self, doc):
        import importlib

        text = _read(doc)
        for match in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", text))):
            module_path = match
            attr = None
            try:
                importlib.import_module(module_path)
                continue
            except ModuleNotFoundError:
                module_path, _, attr = match.rpartition(".")
            module = importlib.import_module(module_path)
            assert hasattr(module, attr), f"{doc}: {match} does not resolve"

    def test_experiment_index_matches_harness(self):
        """Every experiment id in DESIGN.md's index has a harness file."""
        text = _read("DESIGN.md")
        rows = re.findall(r"`benchmarks/(test_\w+\.py)`", text)
        assert rows, "DESIGN.md experiment index is empty"
        for name in rows:
            assert (ROOT / "benchmarks" / name).exists()


class TestObservabilityDocs:
    """The new docs pages describe real modules, flags and span names."""

    @pytest.mark.parametrize("doc", ["docs/observability.md",
                                     "docs/architecture.md",
                                     "docs/serving.md"])
    def test_page_exists_and_dotted_paths_import(self, doc):
        import importlib

        text = _read(doc)
        for match in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", text))):
            module_path, attr = match, None
            try:
                importlib.import_module(module_path)
                continue
            except ModuleNotFoundError:
                module_path, _, attr = match.rpartition(".")
            module = importlib.import_module(module_path)
            assert hasattr(module, attr), f"{doc}: {match} does not resolve"

    def test_architecture_maps_every_package(self):
        text = _read("docs/architecture.md")
        src = ROOT / "src" / "repro"
        for pkg in sorted(p.parent.name for p in src.glob("*/__init__.py")):
            assert f"`{pkg}/`" in text, (
                f"docs/architecture.md does not map package {pkg}"
            )

    @pytest.mark.parametrize("doc", ["docs/observability.md",
                                     "docs/architecture.md",
                                     "docs/faults.md",
                                     "docs/serving.md"])
    def test_documented_cli_flags_exist(self, doc):
        cli_source = (ROOT / "src" / "repro" / "cli.py").read_text()
        for flag in sorted(_cli_flags(_read(doc))):
            assert f'"{flag}"' in cli_source, (
                f"{doc} documents unknown CLI flag {flag}"
            )

    def test_trace_help_covers_documented_flags(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["trace", "--help"])
        help_text = capsys.readouterr().out
        for flag in ("--out", "--format", "--critical-path", "--migrate-at",
                     "--start"):
            assert flag in help_text

    def test_observability_names_real_spans_and_categories(self):
        from repro.telemetry.spans import CATEGORIES

        text = _read("docs/observability.md")
        for category in CATEGORIES:
            assert f"`{category}`" in text, f"category {category} undocumented"
        migration = (ROOT / "src" / "repro" / "kernel" /
                     "migration.py").read_text()
        for name in re.findall(r"`(migrate\.\w+)`", text):
            assert f'"{name}"' in migration, (
                f"docs/observability.md names unknown span {name}"
            )

    def test_benchmark_artifact_referenced_and_present(self):
        text = _read("docs/observability.md")
        assert "benchmarks/results/fig11_critical_path.txt" in text
        assert (ROOT / "benchmarks" / "results" /
                "fig11_critical_path.txt").exists()


class TestServingDocs:
    """docs/serving.md names every real traffic shape and policy."""

    def test_names_every_shape_and_policy(self):
        from repro.serving import SERVING_POLICIES, TRAFFIC_SHAPES

        text = _read("docs/serving.md")
        for shape in TRAFFIC_SHAPES:
            assert f"`{shape}`" in text, f"shape {shape} undocumented"
        for policy in SERVING_POLICIES:
            assert f"`{policy}`" in text, f"policy {policy} undocumented"

    def test_cross_linked_from_entry_docs(self):
        for doc in ("README.md", "DESIGN.md", "docs/architecture.md",
                    "docs/observability.md"):
            assert "serving.md" in _read(doc), f"{doc} lacks serving link"

    def test_benchmark_artifacts_referenced_and_present(self):
        text = _read("docs/serving.md")
        for name in ("serving_flash_crowd", "serving_diurnal"):
            assert f"benchmarks/results/{name}.txt" in text
            assert (ROOT / "benchmarks" / "results" / f"{name}.txt").exists()


class TestFleetDocs:
    """docs/fleet.md names real modules, flags and invariants."""

    def test_page_exists_and_dotted_paths_import(self):
        import importlib

        text = _read("docs/fleet.md")
        for match in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", text))):
            module_path, attr = match, None
            try:
                importlib.import_module(module_path)
                continue
            except ModuleNotFoundError:
                module_path, _, attr = match.rpartition(".")
            module = importlib.import_module(module_path)
            assert hasattr(module, attr), f"docs/fleet.md: {match} " \
                "does not resolve"

    def test_documented_flags_exist(self):
        cli_source = (ROOT / "src" / "repro" / "cli.py").read_text()
        for flag in sorted(_cli_flags(_read("docs/fleet.md"))):
            assert f'"{flag}"' in cli_source, (
                f"docs/fleet.md documents unknown flag {flag}"
            )

    def test_cross_linked_from_entry_docs(self):
        for doc in ("README.md", "DESIGN.md", "docs/architecture.md",
                    "docs/serving.md", "docs/faults.md"):
            assert "fleet.md" in _read(doc), f"{doc} lacks fleet link"

    def test_architecture_closes_the_enabling_gaps(self):
        # The page that exposed the "two DES layers" and "PopcornSystem
        # god object" gaps must record them as closed, not open.
        text = _read("docs/architecture.md")
        assert "Closed since the last revision" in text
        gaps = text.split("## Gaps this map exposes", 1)[1]
        assert "god object" not in gaps
        assert "two DES layers" not in gaps

    def test_baseline_exists_and_matches_schema(self):
        import json

        document = json.loads((ROOT / "BENCH_fleet.json").read_text())
        assert document["benchmark"] == "fleet migration wave"
        facts = document["facts"]
        assert "wave/1k-nodes" in facts and "wave/faulted" in facts
        big = facts["wave/1k-nodes"]
        assert big["jobs_offered"] >= 1_000_000
        assert len(big["result_checksum"]) == 16
        config = document["config"]["cells"]["wave/1k-nodes"]
        assert sum(config["nodes"].values()) >= 1000

    def test_fleet_mentions_wave_policy_fields(self):
        from dataclasses import fields

        from repro.fleet import WavePolicy

        text = _read("docs/fleet.md")
        for field in fields(WavePolicy):
            stem = field.name.split("_")[0]
            assert stem in text, (
                f"docs/fleet.md does not document WavePolicy.{field.name}"
            )


TOOL_FLAG_SOURCES = ["README.md", "DESIGN.md"] + sorted(
    str(path.relative_to(ROOT))
    for pattern in ("docs/*.md", "benchmarks/*.py")
    for path in ROOT.glob(pattern)
)


class TestToolFlags:
    """Every ``tools/<x>.py --flag`` (or ``bench/<x>.py --flag``) the
    docs quote names a flag that script defines."""

    @pytest.mark.parametrize("doc", TOOL_FLAG_SOURCES)
    def test_documented_tool_flags_exist(self, doc):
        for script, flag in sorted(_script_flags(_read(doc))):
            source = (ROOT / script).read_text()
            assert f'"{flag}"' in source, (
                f"{doc} quotes {script} {flag}, which {script} does not define"
            )


class TestWorkloadDocsMatchRegistry:
    def test_readme_lists_all_npb_kernels(self):
        from repro.workloads import workload_names

        text = _read("README.md")
        npb = [n for n in workload_names()
               if n not in ("bzip2smp", "verus", "redis")]
        for name in npb:
            assert name.upper() in text, f"README omits NPB {name.upper()}"

    def test_golden_table_in_sync(self):
        from repro.workloads import workload_names
        from repro.workloads.golden import GOLDEN_CHECKSUMS

        benches = {key.split(".")[0] for key in GOLDEN_CHECKSUMS}
        assert benches == set(workload_names())


# ------------------------------------------------------------ dead code

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Where a name counts as used.  Markdown is left out: a name that only
#: prose mentions is dead code.
USE_DIRS = ("src", "tests", "bench", "tools", "benchmarks", "examples")
USE_FILES = (".github/workflows/ci.yml",)
#: ``from <package> import <names>``, the names up to the line's end or
#: across a parenthesised list.
FROM_IMPORT = re.compile(r"from\s+([\w.]+)\s+import\s+(\([^)]*\)|[^\n]*)")


def _exempt(name: str) -> bool:
    """Names reached without being spelled out: dunders, the syscall
    handlers ``kernel/syscall.py`` dispatches by name, and
    ``FunctionBuilder.migration_point``, kept for generated programs."""
    return (
        (name.startswith("__") and name.endswith("__"))
        or name.startswith("_sys_")
        or name == "migration_point"
    )


def _src_modules(root: pathlib.Path):
    for path in sorted((root / "src").rglob("*.py")):
        yield path, path.relative_to(root), ast.parse(path.read_text())


def _use_files(root: pathlib.Path) -> list:
    files = [p for d in USE_DIRS for p in sorted((root / d).rglob("*.py"))]
    return files + [root / name for name in USE_FILES if (root / name).exists()]


def _package_of(root: pathlib.Path, path: pathlib.Path):
    """The dotted package a ``src/`` ``__init__.py`` defines, else None."""
    if path.name == "__init__.py" and root / "src" in path.parents:
        return ".".join(path.parent.relative_to(root / "src").parts)
    return None


def _is_export_table(node) -> bool:
    """``__getattr__ = lazy_exports(__name__, {...})``."""
    return isinstance(node, ast.Assign) and any(
        getattr(t, "id", None) == "__getattr__" for t in node.targets
    )


def _without_reexports(text: str) -> str:
    """A package ``__init__.py`` minus its import statements and its
    export table: re-exporting a name does not use it."""
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_export_table(node):
            for index in range(node.lineno - 1, node.end_lineno):
                lines[index] = ""
    return "\n".join(lines)


def unused_definitions(root: pathlib.Path) -> list:
    """``path:line name`` for every function or class in ``src/`` whose
    name appears once (its own definition) across the use set.  A
    ``src/`` package ``__init__.py`` counts only outside its imports
    and export table."""
    counts = Counter()
    for path in _use_files(root):
        text = path.read_text()
        if _package_of(root, path):
            text = _without_reexports(text)
        counts.update(IDENT.findall(text))
    return [
        f"{rel}:{node.lineno} {node.name}"
        for path, rel, tree in _src_modules(root)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _exempt(node.name)
        and counts[node.name] < 2
    ]


def dead_exports(root: pathlib.Path) -> list:
    """``path:line name`` for every export-table entry that no file in
    the use set but the package's own ``__init__.py`` imports through
    the package, as ``from <package> import name`` or
    ``<package>.name``."""
    used = set()
    for path in _use_files(root):
        text = path.read_text()
        mine = _package_of(root, path)
        for package, names in FROM_IMPORT.findall(text):
            if package != mine:
                used.update((package, name) for name in IDENT.findall(names))
        for dotted in re.findall(r"[\w.]+", text):
            package, _, name = dotted.rpartition(".")
            if package != mine:
                used.add((package, name))
    dead = []
    for path, rel, tree in _src_modules(root):
        package = _package_of(root, path)
        if package is None:
            continue
        lines = path.read_text().splitlines()
        for node in tree.body:
            if not _is_export_table(node):
                continue
            for value in node.value.args[1].values:
                for name in value.value.split():
                    if (package, name) in used:
                        continue
                    line = next(i + 1 for i in range(value.lineno - 1, value.end_lineno)
                                if name in IDENT.findall(lines[i]))
                    dead.append(f"{rel}:{line} {name}")
    return dead


def unused_imports(root: pathlib.Path) -> list:
    """``path:line name`` for every module-level import in ``src/``
    (outside ``__init__.py``, which re-exports) whose name never
    appears again in its module."""
    dead = []
    for path, rel, tree in _src_modules(root):
        if path.name == "__init__.py":
            continue
        counts = Counter(IDENT.findall(path.read_text()))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if counts[name] < 2:
                    dead.append(f"{rel}:{node.lineno} {name}")
    return dead


class TestNothingUnused:
    """Dead code cannot build up: a helper nothing names, an export
    nothing imports through its package and an import nothing reads
    all fail here, printed as ``path:line name``."""

    def test_every_definition_is_named_elsewhere(self):
        dead = unused_definitions(ROOT)
        assert not dead, "named nowhere else:\n" + "\n".join(dead)

    def test_every_export_is_imported_through_its_package(self):
        dead = dead_exports(ROOT)
        assert not dead, "exported, never imported from the package:\n" + "\n".join(dead)

    def test_no_unused_imports(self):
        dead = unused_imports(ROOT)
        assert not dead, "imported, never used:\n" + "\n".join(dead)

    def test_scanner_catches_planted_dead_code(self, tmp_path):
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from pkg.lazy import lazy_exports\n"
            "from pkg.mod import inner\n\n"
            "__getattr__ = lazy_exports(__name__, {\n"
            "    \".mod\": \"dotted used \"\n"
            "            \"reexported\",\n"
            "})\n\n\n"
            "def wrapper():\n"
            "    return inner()\n"
        )
        (pkg / "mod.py").write_text(
            "import json\n"
            "import os\n\n\n"
            "def used():\n"
            "    return os.sep\n\n\n"
            "def dead_helper():\n"
            "    return 1\n\n\n"
            "def _sys_exit():\n"
            "    pass\n\n\n"
            "def reexported():\n"
            "    return 2\n\n\n"
            "def inner():\n"
            "    return 3\n\n\n"
            "def dotted():\n"
            "    return 4\n\n\n"
            "class DocsOnly:\n"
            "    pass\n"
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "import pkg\n"
            "from pkg import used, wrapper\n\n"
            "pkg.dotted()\n"
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "guide.md").write_text("Only prose names `DocsOnly`.\n")
        assert unused_definitions(tmp_path) == [
            "src/pkg/mod.py:9 dead_helper",
            "src/pkg/mod.py:17 reexported",
            "src/pkg/mod.py:29 DocsOnly",
        ]
        assert dead_exports(tmp_path) == ["src/pkg/__init__.py:6 reexported"]
        assert unused_imports(tmp_path) == ["src/pkg/mod.py:1 json"]


# ---------------------------------------------------------- ordered sums


def _is_count(call) -> bool:
    """``sum(1 for ...)``: an int count, the same on every Python."""
    if len(call.args) != 1 or call.keywords:
        return False
    arg = call.args[0]
    return (
        isinstance(arg, ast.GeneratorExp)
        and isinstance(arg.elt, ast.Constant)
        and type(arg.elt.value) is int and arg.elt.value == 1
    )


def builtin_sums(root: pathlib.Path) -> list:
    """``path:line`` for every builtin ``sum()`` call in ``src/`` that
    does more than count."""
    return [
        f"{rel}:{node.lineno}"
        for path, rel, tree in _src_modules(root)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "sum"
        and not _is_count(node)
    ]


class TestOrderedSums:
    """Every total in ``src/`` is added by ``repro.sim.numeric.ordered_sum``
    (its module docstring says why); only a count, ``sum(1 for ...)``,
    may call the builtin.  Each call found prints as ``path:line``."""

    def test_src_sums_only_to_count(self):
        found = builtin_sums(ROOT)
        assert not found, "builtin sum(), use ordered_sum:\n" + "\n".join(found)

    def test_scanner_catches_planted_sums(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text(
            "from repro.sim.numeric import ordered_sum\n\n\n"
            "def totals(xs):\n"
            "    count = sum(1 for x in xs if x)\n"
            "    floats = sum(xs)\n"
            "    ints = sum(len(x) for x in xs)\n"
            "    started = sum((1 for x in xs), 0.5)\n"
            "    flags = sum(True for x in xs)\n"
            "    return count, floats, ints, started, flags, ordered_sum(xs)\n"
        )
        assert builtin_sums(tmp_path) == [
            "src/mod.py:6", "src/mod.py:7", "src/mod.py:8", "src/mod.py:9",
        ]


def violation_calls(root: pathlib.Path) -> list:
    """``path:line`` for every ``InvariantViolation(...)`` call, and every
    subclass of it, in ``src/`` outside ``validate/errors.py``."""
    home = pathlib.Path("src", "repro", "validate", "errors.py")

    def named(node) -> bool:
        return "InvariantViolation" in (getattr(node, "id", None),
                                        getattr(node, "attr", None))

    return [
        f"{rel}:{node.lineno}"
        for path, rel, tree in _src_modules(root)
        if rel != home
        for node in ast.walk(tree)
        if (isinstance(node, ast.Call) and named(node.func))
        or (isinstance(node, ast.ClassDef) and any(map(named, node.bases)))
    ]


class TestOneViolationPath:
    """Every runtime invariant check fails through
    ``repro.validate.errors.fail``, which logs the violation before it
    raises; only that module builds an ``InvariantViolation``.  Each
    call found prints as ``path:line``."""

    def test_src_fails_only_through_fail(self):
        found = violation_calls(ROOT)
        assert not found, "InvariantViolation built, use fail():\n" + "\n".join(found)

    def test_scanner_catches_planted_violations(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text(
            "from repro.validate import errors\n"
            "from repro.validate.errors import InvariantViolation, fail\n\n\n"
            "class Divergence(InvariantViolation):\n"
            "    pass\n\n\n"
            "def check(ok):\n"
            "    try:\n"
            "        fail('x', 'y', 'logged')\n"
            "    except InvariantViolation:\n"
            "        pass\n"
            "    raise InvariantViolation('x', 'y', 'unlogged')\n"
            "    raise errors.InvariantViolation('x', 'y', 'unlogged')\n"
        )
        assert violation_calls(tmp_path) == [
            "src/mod.py:5", "src/mod.py:14", "src/mod.py:15",
        ]
