"""`src/repro` is what a verb reaches: the static import closure guard.

The closure starts at the shipped entry points and follows imports:

- roots: ``repro.cli`` and ``repro.__main__``, every ``repro`` module that
  ``perf/*.py`` (not ``perf/tests/``) or ``examples/*.py`` imports, and the
  :data:`ALLOWLIST` modules;
- edges: every ``import`` / ``from ... import`` of a reached module,
  function-local ones included; imports under ``if TYPE_CHECKING:`` do not
  count;
- a package ``__init__`` runs whenever a submodule is imported, but its
  module-level re-exports and its ``_EXPORTS`` / ``_LAZY_EXPORTS`` string
  tables become edges only for the names some reached module imports *from
  the package*.

Every ``src/repro`` module outside the closure fails the guard.  A module
the shipped verbs do not reach but which reproduces a paper result is kept
by an allowlist entry citing its section; an entry whose module is reached
without it fails too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Iterable

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

ENTRY_POINTS = ("repro.cli", "repro.__main__")

#: Modules no verb reaches that reproduce a paper result, each with its section.
ALLOWLIST = {
    "repro.simgrid.xml_io": "§IV-B: the converter's SimGrid platform files "
    "(and the §V-A size check in tests/g5k/test_converter_xml.py)",
    "repro.simgrid.routing": "§IV-C2: flat vs hierarchical route tables",
    "repro.nws.api": "§III-C: the NWS baseline bench_nws_baseline asserts PNFS beats",
    "repro.experiments.campaign": "§V-A: the full campaign, every feasible "
    "combination run through run_experiment",
}

_TABLES = ("_EXPORTS", "_LAZY_EXPORTS")


def package_modules(src: Path, package: str) -> dict[str, Path]:
    """Dotted name -> file of every module of ``package`` under ``src``."""
    modules = {}
    for path in sorted((src / package).rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(nodes, module_level: bool = True):
    """Yield ``(import node, at module level)``, skipping TYPE_CHECKING blocks."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, module_level
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _imports(node.orelse, module_level)
        else:
            scoped = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from _imports(ast.iter_child_nodes(node), module_level and not scoped)


def _export_tables(tree: ast.Module) -> dict[str, str]:
    """``_EXPORTS`` / ``_LAZY_EXPORTS``: name -> module (a string or a tuple's first item)."""
    table = {}
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id in _TABLES for t in stmt.targets)):
            continue
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if isinstance(value, ast.Tuple) and value.elts:
                value = value.elts[0]
            if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                table[key.value] = value.value
    return table


class _Parsed:
    """One file's imports: module edges, names wanted from packages, re-exports."""

    def __init__(self, path: Path, name: str, is_package: bool, modules: dict[str, Path]):
        self.edges: set[str] = set()
        self.wanted: set[tuple[str, str]] = set()  # (package, name imported from it)
        self.reexports: dict[str, set[str]] = defaultdict(set)  # name -> modules
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, module_level in _imports(tree.body):
            if isinstance(node, ast.Import):
                self.edges.update(alias.name for alias in node.names)
                continue
            base = node.module or ""
            if node.level:
                anchor = name.split(".") if is_package else name.split(".")[:-1]
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                sub = f"{base}.{alias.name}"
                target = sub if sub in modules else base
                if is_package and module_level:
                    self.reexports[alias.asname or alias.name].add(target)
                else:
                    self.edges.add(target)
                    self.wanted.add((base, alias.name))
        if is_package:
            for export, target in _export_tables(tree).items():
                self.reexports[export].add(target)


def import_closure(
    src: Path, package: str, roots: Iterable[str], root_files: Iterable[Path] = ()
) -> set[str]:
    """The modules of ``package`` reached from ``roots`` and ``root_files``."""
    modules = package_modules(src, package)
    parsed = {
        module: _Parsed(path, module, path.name == "__init__.py", modules)
        for module, path in modules.items()
    }
    scripts = [_Parsed(path, "__main__", False, modules) for path in root_files]
    reached: set[str] = set()
    wanted: set[tuple[str, str]] = set()

    def reach(module: str) -> None:
        # Importing a.b.c runs the a and a.b package __init__s too.
        parts = module.split(".")
        reached.update(
            prefix for prefix in (".".join(parts[:i]) for i in range(1, len(parts) + 1))
            if prefix in modules
        )

    for root in roots:
        reach(root)
    size = -1
    while size != len(reached) + len(wanted):
        size = len(reached) + len(wanted)
        for info in scripts + [parsed[module] for module in list(reached)]:
            for edge in info.edges:
                reach(edge)
            wanted |= info.wanted
        for base, name in list(wanted):
            if base in reached:
                for target in parsed[base].reexports.get(name, ()):
                    reach(target)
                    wanted.add((target, name))
    return reached


def shipped_closure(allowlist: Iterable[str] = ()) -> set[str]:
    scripts = sorted(REPO.glob("perf/*.py")) + sorted(REPO.glob("examples/*.py"))
    return import_closure(SRC, "repro", [*ENTRY_POINTS, *allowlist], scripts)


def test_every_src_module_is_reached():
    unreached = sorted(set(package_modules(SRC, "repro")) - shipped_closure(ALLOWLIST))
    assert not unreached, (
        "no CLI verb, perf/ workload or example imports these modules; "
        "delete them, give them a caller, or allowlist the paper section "
        f"they reproduce: {unreached}"
    )


def test_allowlist_is_needed_and_cites_a_section():
    reached = shipped_closure()
    stale = sorted(set(ALLOWLIST) & reached)
    assert not stale, f"reachable without their allowlist entry: {stale}"
    modules = package_modules(SRC, "repro")
    for module, why in ALLOWLIST.items():
        assert module in modules, module
        assert why.startswith("§"), (module, why)


def test_real_closure_reaches_the_kernel_and_the_http_codec():
    reached = shipped_closure()
    assert "repro.simgrid.maxmin" in reached
    assert "repro.core.rest.http_codec" in reached


def test_examples_run():
    """The examples are roots of the closure, so they must run."""
    examples = sorted(str(path) for path in (REPO / "examples").glob("*.py"))
    assert examples
    script = (
        "import runpy, sys\n"
        "for path in sys.argv[1:]:\n"
        "    runpy.run_path(path, run_name='__main__')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script, *examples],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]


# -- the guard on a synthetic package -------------------------------------


def _write(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


@pytest.fixture()
def toy(tmp_path):
    _write(
        tmp_path,
        {
            "toy/__init__.py": "",
            "toy/cli.py": (
                "from toy.pkg import used\n"
                "from toy.lazy import Lazy\n"
                "def verb():\n"
                "    import toy.local\n"
            ),
            "toy/pkg/__init__.py": (
                "from toy.pkg.a import used\n"
                "from toy.pkg.only_reexported import unused\n"
            ),
            "toy/pkg/a.py": "used = 1\n",
            "toy/pkg/only_reexported.py": "unused = 1\n",
            "toy/lazy/__init__.py": (
                "_LAZY_EXPORTS = {'Lazy': 'toy.lazy.impl', 'Other': 'toy.lazy.other'}\n"
                "def __getattr__(name):\n"
                "    import importlib\n"
                "    return getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)\n"
            ),
            "toy/lazy/impl.py": "Lazy = 1\n",
            "toy/lazy/other.py": "Other = 1\n",
            "toy/local.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from toy.typing_only import T\n"
            ),
            "toy/typing_only.py": "T = int\n",
        },
    )
    return import_closure(tmp_path, "toy", ["toy.cli"])


def test_guard_flags_a_module_reached_only_through_a_package_reexport(toy):
    assert "toy.pkg.a" in toy
    assert "toy.pkg.only_reexported" not in toy


def test_guard_follows_a_lazy_export_a_root_imports(toy):
    assert "toy.lazy.impl" in toy
    assert "toy.lazy.other" not in toy


def test_guard_counts_a_function_local_import(toy):
    assert "toy.local" in toy


def test_guard_ignores_a_type_checking_import(toy):
    assert "toy.typing_only" not in toy


def test_guard_roots_include_script_files(tmp_path):
    _write(tmp_path, {"toy/__init__.py": "", "toy/x.py": "", "script.py": "from toy import x\n"})
    assert import_closure(tmp_path, "toy", [], [tmp_path / "script.py"]) == {"toy", "toy.x"}
