"""Every registered scenario preset smoke-runs in both kernel modes.

The scenario registry is the CLI's public surface (``repro scenarios
list|run``): every preset must build its platform, generate its workload,
apply its dynamics schedule and complete a simulation, incrementally and
with full re-solves, and the two modes must agree — so a preset that only
works in one mode fails loudly.  Presets are millisecond-scale.
"""

from __future__ import annotations

import pytest

from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.scenarios.runner import run_scenario


@pytest.mark.parametrize("name", DEFAULT_REGISTRY.names())
def test_preset_smokes_in_both_kernel_modes(name, reference_kernel):
    spec = DEFAULT_REGISTRY.get(name)
    incremental = run_scenario(spec)
    with reference_kernel():
        full = run_scenario(spec)
    assert incremental.transfers
    assert max(incremental.makespans) > 0
    for inc, ful in zip(incremental.transfers, full.transfers):
        assert inc.duration == pytest.approx(ful.duration, rel=1e-9), (
            f"kernel modes disagree on {inc.src}->{inc.dst}")
    if spec.dynamics or spec.measured:
        assert incremental.events_applied, "dynamics schedule never fired"
