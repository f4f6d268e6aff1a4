"""The kill table: mutations of ``src/repro`` and the tests that tell each
from the shipped code.

Each :class:`Mutant` replaces one exact text of one file with another.  A
killed mutant names the test ids that fail on it; a surviving one names the
tests it was run against and says why none of them fails (``survives``).
``tests/test_mutants.py`` checks in tier-1 that the catalogue is live:
every ``old`` text occurs exactly once in its file and every test id
names a test that exists.  Code that moves a mutated text updates its
record.

Run it, from anywhere::

    python tests/reference/mutants.py [NAME ...]

For each record (all of them by default) the runner copies the tree to a
temporary directory, applies the record there, runs its tests with
``pytest -x`` and prints one row: what the record expects, what happened
and how long it took.  It exits 1 when a row differs from its record.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[2]

MACHINE = ("tests/test_service_machine.py::"
           "test_every_sequence_of_verbs_answers_as_the_oracle")
#: What the solver mutants were run against: every kernel, REST and
#: service test.
SOLVER_SUITES = ("tests/simgrid", "tests/core",
                 "tests/test_service_machine.py")


@dataclass(frozen=True)
class Mutant:
    """``old`` (exactly once in ``src/repro/<file>``) becomes ``new``."""

    name: str
    file: str
    old: str
    new: str
    #: pytest ids: the tests that kill it, or those it survives
    tests: tuple[str, ...]
    #: why no test kills it; empty for a killed mutant
    survives: str = ""


MUTANTS = (
    Mutant("lru-hit-as-miss", "_util/lru.py",
           "        self.hits += 1\n", "        self.misses += 1\n",
           (MACHINE,)),
    Mutant("lru-never-evicts", "_util/lru.py",
           "elif len(self._entries) >= self.maxsize:", "elif False:",
           (MACHINE,)),
    Mutant("front-hits-not-folded", "serving/gateway/gateway.py",
           '            cache["hits"] += handle.front_hits\n', "",
           (MACHINE,)),
    Mutant("sync-ships-unmoved", "serving/gateway/gateway.py",
           "if force or synced.get(name) != stamp", "if True",
           (MACHINE,)),
    Mutant("mm-bound-clip", "simgrid/maxmin.py",
           "values[v] = value if value < bounds[v] else bounds[v]",
           "values[v] = value", SOLVER_SUITES,
           "no test states that a rate never exceeds its bound exactly"),
    Mutant("mm-resum-order", "simgrid/maxmin.py",
           "            row.sort()  # ascending vid",
           "            row.sort(reverse=True)  # ascending vid",
           SOLVER_SUITES,
           "no test compares two churn histories that end in one live set"),
    Mutant("mm-usage-inf", "simgrid/maxmin.py",
           "if rate < math.inf:", "if True:", SOLVER_SUITES,
           "no churn is known to put an infinite rate in a shared row"),
)


def _copy_tree(destination: pathlib.Path) -> None:
    shutil.copytree(ROOT, destination, ignore=shutil.ignore_patterns(
        ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".benchmarks"))


def run(mutant: Mutant) -> tuple[str, float]:
    """``("killed" | "survived", seconds)`` of ``mutant`` on a copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = pathlib.Path(scratch) / "tree"
        _copy_tree(tree)
        path = tree / "src" / "repro" / mutant.file
        text = path.read_text("utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text does not occur "
                             f"exactly once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), "utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        seconds = time.perf_counter() - started
    if done.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited "
                         f"{done.returncode}, neither a pass nor a failure")
    return ("survived" if done.returncode == 0 else "killed"), seconds


def main(names: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in names] or list(MUTANTS)
    print(f"{'mutant':<24} {'expected':<9} {'got':<9} {'seconds':>8}")
    mismatches = 0
    for mutant in chosen:
        expected = "survived" if mutant.survives else "killed"
        got, seconds = run(mutant)
        mismatches += got != expected
        print(f"{mutant.name:<24} {expected:<9} {got:<9} {seconds:8.1f}",
              flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
