"""Tier-1 hook for the sharing-model registry smoke check.

Every registered model must build from factory defaults and answer
identically in both solver modes on contended star/dumbbell
topologies — see ``tools/check_model_smoke.py``.  Models are
millisecond-scale, so like the scenario preset smoke this runs in-process
on every tier-1 pass.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_model_smoke  # noqa: E402

from repro.simgrid.models import registered_models  # noqa: E402


@pytest.mark.parametrize(
    "entry", registered_models(), ids=lambda e: e.name)
def test_model_smokes_in_all_solver_modes(entry):
    assert check_model_smoke.smoke_model(entry) > 0


def test_standalone_runner_passes(capsys):
    assert check_model_smoke.main() == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert f"{len(registered_models())} sharing models" in out
