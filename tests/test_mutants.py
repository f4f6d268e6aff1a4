"""The kill table (``tests/reference/mutants.py``) is live: each record's
text occurs exactly once where it says, and each test it names exists.
Running the table itself takes minutes; ``python tests/reference/mutants.py``
does that."""

from __future__ import annotations

import ast

from reference.mutants import MUTANTS, ROOT


def _defined(path, name: str) -> bool:
    """Whether ``name`` (``test`` or ``Class::test``) is defined in the
    test module at ``path``."""
    scope = ast.parse(path.read_text("utf-8")).body
    for part in name.split("::"):
        found = [node for node in scope if isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) and node.name == part]
        if not found:
            return False
        scope = found[0].body
    return True


def test_every_record_applies_once_and_names_existing_tests():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        source = (ROOT / "src" / "repro" / mutant.file).read_text("utf-8")
        assert source.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old and mutant.tests, mutant.name
        for test_id in mutant.tests:
            path, _, name = test_id.partition("::")
            assert (ROOT / path).exists(), (mutant.name, test_id)
            assert not name or _defined(ROOT / path, name), (
                mutant.name, test_id)
