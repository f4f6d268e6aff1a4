"""Shared bench fixtures.

Each figure bench (a) runs the paper's experiment for that figure on the
testbed + predictor (cached per session, since the summary bench pools all
of them), (b) prints the paper-style series, (c) asserts the shape checks
from :mod:`repro.experiments.figures`, and (d) benchmarks the *online*
component — the PNFS prediction request for that figure's workload — which
is the latency the paper cares about for scheduling (§IV-C2).

Environment knobs: ``REPRO_REPS`` (default 5; the paper used 10) and
``REPRO_SEED``.
"""

from __future__ import annotations

import pytest

from _harness import FigureHarness


@pytest.fixture(scope="session")
def harness() -> FigureHarness:
    return FigureHarness()


@pytest.fixture()
def console(capfd):
    """Print through pytest's capture so tee'd bench output keeps tables."""

    def emit(text: str) -> None:
        with capfd.disabled():
            print(f"\n{text}")

    return emit
