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

The same rule holds name by name (:func:`unreached_names`).  Every
top-level ``def`` / ``class`` of a reached module, every ``def`` directly
inside those classes, and every name a package ``__init__`` re-exports must
be used by a reached module, ``perf/*.py`` or ``examples/*.py``; tests do
not count.  Dunder names, defs a registry decorator reaches
(``@register_workload``, ``@router.get``, ...) and the allowlisted modules
are exempt.  A name the shipped verbs do not use stays only by a
:data:`NAME_ALLOWLIST` entry citing its paper section, or the test that
uses it as a reference or an invariant check (``oracle: tests/...``).
"""

from __future__ import annotations

import ast
import os
import re
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
    "repro.nws.api": "§III-C: the NWS baseline PNFS beats in "
    "tests/experiments/test_paper_experiments.py",
    "repro.experiments.campaign": "§V-A: the full campaign, every feasible "
    "combination run through run_experiment",
}

#: ``module.Qualname`` no verb uses, kept as a paper section or a test oracle.
#: A test-only helper that needs nothing private lives with its reference
#: under ``tests/reference/``; each name below says why it stays in ``src/``.
NAME_ALLOWLIST = {
    "repro.simgrid.maxmin.SharingSystem.is_feasible": "oracle: "
    "tests/simgrid/test_maxmin_properties.py checks every churned arena "
    "state; stays a method: it reads the private slot buffers",
    "repro.simgrid.maxmin.SharingSystem.update_variable": "oracle: "
    "tests/simgrid/test_maxmin_properties.py: the checked twin of "
    "update_variable_unchecked; stays beside it: the arena validates its "
    "own inputs",
    "repro.simgrid.maxmin.SharingSystem.allocations": "oracle: "
    "tests/simgrid/test_maxmin_properties.py reads the whole solution; stays "
    "a method: it reads the private slot buffers",
    "repro.simgrid.maxmin.SharingSystem.constraint_usage": "oracle: "
    "tests/simgrid/test_maxmin_properties.py checks usage against capacity; "
    "stays a method: it reads the private key interning",
    "repro.simgrid.maxmin.SharingSystem.constraint_capacity": "oracle: "
    "tests/simgrid/test_maxmin_properties.py checks interned capacities "
    "for drift; stays a method: it reads the private key interning",
    "repro.simgrid.maxmin.SharingSystem.variable_count": "oracle: "
    "tests/simgrid/test_maxmin_properties.py checks the arena's live count; "
    "stays a method: the churn and batched-removal checks read it",
    "repro.simgrid.activities.Activity.cancel": "oracle: "
    "tests/simgrid/test_tcpfluid.py: the incremental = full suite cancels "
    "a comm mid-run; stays: it is the one public way to cancel, and the "
    "engine's cancel sweep exists for it",
    "repro.simgrid.engine.Simulation.add_sleep": "oracle: "
    "tests/reference/process.py: the explicit sender/receiver processes; "
    "stays: a sleep is a kernel activity in the engine's slot arrays",
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


_PLAIN_DECORATORS = {"staticmethod", "classmethod", "property", "setter"}


def _decorator_name(node: ast.expr) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _definitions(tree: ast.Module, module: str):
    """``(qualname, name, node)`` of top-level defs/classes and their methods."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{stmt.name}", stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{stmt.name}.{sub.name}", sub.name, sub


def _registered(node: ast.AST) -> bool:
    """A decorator that may register the def somewhere (``@router.get``, ...)."""
    return any(
        _decorator_name(deco) not in _PLAIN_DECORATORS
        for deco in getattr(node, "decorator_list", ())
    )


def _mentions(tree: ast.Module, is_package: bool) -> set[str]:
    """Identifiers a file uses: names, attributes, imported names, identifier strings."""
    tables = set()  # string constants of __all__ and the export tables name no use
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("__all__", *_TABLES) for t in stmt.targets
        ):
            tables.update(id(node) for node in ast.walk(stmt.value))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_package:
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in tables):
            used.add(node.value)
    return used


def _files(modules: dict[str, Path], reached: Iterable[str], root_files: Iterable[Path]):
    """``(path, module, is_package)`` of the reached modules, then the root files."""
    files = [(modules[m], m, modules[m].name == "__init__.py") for m in sorted(reached)]
    return files + [(path, "__main__", False) for path in root_files]


def unreached_names(
    src: Path, package: str, reached: set[str], root_files: Iterable[Path] = (),
    exempt_modules: Iterable[str] = (),
) -> set[str]:
    """``module.Qualname`` of every def and re-export of ``reached`` nobody uses.

    A def is used when a reached module or a root file mentions its name
    anywhere; a package re-export only when some such file imports that name
    from the package.  Matching is by bare name, so a def that shares its name
    with anything used counts as reached: the guard errs on the side of
    keeping code, never of flagging it.
    """
    modules = package_modules(src, package)
    files = _files(modules, reached, root_files)
    used: set[str] = set()
    wanted: set[tuple[str, str]] = set()
    for path, module, is_package in files:
        used |= _mentions(ast.parse(path.read_text(), filename=str(path)), is_package)
        wanted |= _Parsed(path, module, is_package, modules).wanted
    exempt = set(exempt_modules)
    unused = set()
    for path, module, is_package in files:
        if module == "__main__" or module in exempt:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, name, node in _definitions(tree, module):
            if not (name.startswith("__") or _registered(node) or name in used):
                unused.add(qualname)
        if is_package:
            for name in _Parsed(path, module, True, modules).reexports:
                if not name.startswith("__") and (module, name) not in wanted:
                    unused.add(f"{module}.{name}")
    return unused


def unbound_package_imports(
    src: Path, package: str, reached: set[str], root_files: Iterable[Path] = ()
) -> set[str]:
    """``package.name`` that a reached file imports from a package binding no such name."""
    modules = package_modules(src, package)
    unbound = set()
    for path, module, is_package in _files(modules, reached, root_files):
        for base, name in _Parsed(path, module, is_package, modules).wanted:
            init = modules.get(base)
            if init is None or init.name != "__init__.py" or f"{base}.{name}" in modules:
                continue
            tree = ast.parse(init.read_text(), filename=str(init))
            bound = set(_Parsed(init, base, True, modules).reexports)
            bound |= {n for _, n, _ in _definitions(tree, base)}
            bound |= {t.id for s in tree.body if isinstance(s, ast.Assign)
                      for t in s.targets if isinstance(t, ast.Name)}
            if name not in bound:
                unbound.add(f"{base}.{name}")
    return unbound


def shipped_closure(allowlist: Iterable[str] = ()) -> set[str]:
    return import_closure(SRC, "repro", [*ENTRY_POINTS, *allowlist], _scripts())


def _scripts() -> list[Path]:
    return sorted(REPO.glob("perf/*.py")) + sorted(REPO.glob("examples/*.py"))


def shipped_unreached_names() -> set[str]:
    return unreached_names(SRC, "repro", shipped_closure(ALLOWLIST), _scripts(), ALLOWLIST)


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


def test_every_reached_name_is_used():
    unused = sorted(shipped_unreached_names() - set(NAME_ALLOWLIST))
    assert not unused, (
        "no CLI verb, perf/ workload or example uses these names (tests do "
        "not count); delete them, move them next to the tests that use "
        "them, import them from their defining module, or allowlist the "
        f"paper section or test oracle they serve: {unused}"
    )


def test_every_package_import_binds_a_name():
    """With re-exports gone, ``from <package> import X`` is an ImportError
    that only a test running that very line would otherwise catch."""
    unbound = unbound_package_imports(SRC, "repro", shipped_closure(ALLOWLIST), _scripts())
    assert not unbound, f"import these from their defining module: {sorted(unbound)}"


def test_name_allowlist_is_needed_and_cites_a_section_or_an_oracle():
    stale = sorted(set(NAME_ALLOWLIST) - shipped_unreached_names())
    assert not stale, f"used (or gone) without their allowlist entry: {stale}"
    for qualname, why in NAME_ALLOWLIST.items():
        if why.startswith("§"):
            continue
        assert why.startswith("oracle: tests/"), (qualname, why)
        oracle = REPO / why.removeprefix("oracle: ").split()[0].rstrip(":")
        name = qualname.rsplit(".", 1)[1]
        assert re.search(rf"\b{name}\b", oracle.read_text()), (qualname, oracle)


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


# -- the name guard on a synthetic package --------------------------------


@pytest.fixture()
def toy_names(tmp_path):
    _write(
        tmp_path,
        {
            "toy/__init__.py": "",
            "toy/cli.py": (
                "from toy.pkg import used\n"
                "from toy.pkg.a import unused\n"
                "from toy.impl import Engine, Model\n"
                "import toy.registry\n"
                "def verb(model: Model):\n"
                "    Engine().run()\n"
                "    return getattr(model, 'model_key'), unused\n"
            ),
            "toy/impl.py": (
                "__all__ = ['only_tests']\n"
                "class Engine:\n"
                "    def run(self): ...\n"
                "    @staticmethod\n"
                "    def only_tests_static(): ...\n"
                "class Model:\n"
                "    def model_key(self): ...\n"
                "def only_tests(): ...\n"
            ),
            "toy/registry.py": (
                "REGISTRY = {}\n"
                "def register(fn):\n"
                "    REGISTRY[fn.__name__] = fn\n"
                "    return fn\n"
                "@register\n"
                "def registered(): ...\n"
            ),
            "toy/pkg/__init__.py": "from toy.pkg.a import used, unused\n",
            "toy/pkg/a.py": "def used(): ...\ndef unused(): ...\n",
            "tests/test_toy.py": (
                "from toy.impl import Engine, only_tests\n"
                "from toy.pkg import unused\n"
                "only_tests(), Engine.only_tests_static(), unused\n"
            ),
        },
    )
    return unreached_names(tmp_path, "toy", import_closure(tmp_path, "toy", ["toy.cli"]))


def test_name_guard_flags_a_def_only_tests_use(toy_names):
    assert "toy.impl.only_tests" in toy_names  # its __all__ entry is no use
    assert "toy.impl.Engine.only_tests_static" in toy_names


def test_name_guard_counts_a_getattr_string(toy_names):
    assert "toy.impl.Model.model_key" not in toy_names


def test_name_guard_exempts_a_decorator_registered_def(toy_names):
    assert "toy.registry.registered" not in toy_names


def test_name_guard_counts_a_method_reached_through_an_attribute(toy_names):
    assert "toy.impl.Engine.run" not in toy_names


def test_name_guard_flags_a_reexport_nobody_imports_from_the_package(toy_names):
    assert "toy.pkg.used" not in toy_names
    assert "toy.pkg.unused" in toy_names
    assert "toy.pkg.a.unused" not in toy_names  # imported from its module


def test_guard_flags_an_import_the_package_does_not_bind(tmp_path):
    _write(tmp_path, {
        "toy/__init__.py": "",
        "toy/pkg/__init__.py": "from toy.pkg.a import kept\n",
        "toy/pkg/a.py": "def kept(): ...\ndef dropped(): ...\n",
        "toy/cli.py": "from toy.pkg import a, kept, dropped\n",
    })
    reached = import_closure(tmp_path, "toy", ["toy.cli"])
    assert unbound_package_imports(tmp_path, "toy", reached) == {"toy.pkg.dropped"}


# -- collector policy has one home ----------------------------------------

#: ``gc`` functions that change what the cyclic collector does or scans.
GC_POLICY = {"disable", "enable", "freeze", "unfreeze", "set_threshold"}
#: The one def allowed to call them: the session-cached platform builds.
GC_POLICY_HOME = ("repro/experiments/environment.py", "_frozen_build")


def gc_policy_calls(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(enclosing def, gc function, line)`` of every call in ``tree`` of
    a :data:`GC_POLICY` function, through ``import gc [as x]`` or ``from gc
    import f [as g]``; the enclosing def is the outermost one, "" at module
    level."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "gc"}
    functions = {alias.asname or alias.name: alias.name
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "gc"
                 for alias in node.names if alias.name in GC_POLICY}
    calls = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if not scope and isinstance(child, (ast.FunctionDef,
                                                ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr in GC_POLICY
                        and isinstance(func.value, ast.Name)
                        and func.value.id in modules):
                    calls.append((scope, func.attr, child.lineno))
                elif isinstance(func, ast.Name) and func.id in functions:
                    calls.append((scope, functions[func.id], child.lineno))
            visit(child, inner)

    visit(tree, "")
    return calls


def test_only_the_environment_helper_sets_collector_policy():
    """A frozen object is never reclaimed and a disabled collector leaks
    every cycle: which builds are frozen is decided in one place."""
    home = SRC / GC_POLICY_HOME[0]
    offenders, homed = [], []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for scope, name, line in gc_policy_calls(
                ast.parse(path.read_text("utf-8"))):
            if path == home and scope == GC_POLICY_HOME[1]:
                homed.append(name)
            else:
                offenders.append((str(path.relative_to(SRC)), line, name))
    assert offenders == []
    assert sorted(homed) == ["disable", "enable", "freeze"]


def test_gc_policy_scan_sees_every_spelling():
    tree = ast.parse(
        "import gc\n"
        "import gc as collector\n"
        "from gc import freeze, set_threshold as threshold, collect\n"
        "gc.disable()\n"
        "def build():\n"
        "    collector.unfreeze()\n"
        "    def inner():\n"
        "        freeze()\n"
        "    threshold(0)\n"
        "    gc.collect()\n"
        "    collect()\n")
    assert gc_policy_calls(tree) == [
        ("", "disable", 4), ("build", "unfreeze", 6), ("build", "freeze", 8),
        ("build", "set_threshold", 9)]
