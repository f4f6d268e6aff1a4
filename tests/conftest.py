"""Shared fixtures.

Heavy objects (the g5k platforms, the testbed) are built once per session via
the cached accessors in :mod:`repro.experiments.environment`.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import settings

from reference.maxmin import ReferenceSimulation
from repro.experiments import environment
from repro.simgrid.builder import build_dumbbell, build_star_cluster
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, LV08

# One home for the Hypothesis settings the properties share: no per-example
# deadline (one slow example on a loaded machine is not a failure).  Loaded
# here, before any test module is imported, because a test's ``@settings``
# inherits from the profile loaded when it is decorated; each test still
# names its own ``max_examples``.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def g5k_test_platform():
    return environment.g5k_test_platform()


@pytest.fixture(scope="session")
def g5k_cabinets_platform():
    return environment.g5k_cabinets_platform()


@pytest.fixture(scope="session")
def g5k_testbed():
    return environment.testbed()


@pytest.fixture(scope="session")
def forecast_service():
    return environment.forecast_service()


@pytest.fixture()
def star4():
    """A fresh 4-host star cluster platform (full mesh)."""
    return build_star_cluster("star", 4)


@pytest.fixture()
def dumbbell():
    """A fresh 2x2 dumbbell with a shared 1Gbps bottleneck."""
    return build_dumbbell(2, 2, bottleneck_bandwidth="1Gbps")


@pytest.fixture()
def lv08():
    return LV08()


@pytest.fixture()
def cm02():
    return CM02()


@pytest.fixture()
def reference_kernel(monkeypatch):
    """A context manager: inside its ``with`` block every
    :class:`~repro.simgrid.engine.Simulation` — however a verb builds it —
    solves with :class:`~reference.maxmin.ReferenceSimulation`'s full
    re-solve instead of the arena.  Tests that build the simulation
    themselves instantiate ``ReferenceSimulation`` instead."""

    @contextmanager
    def swapped():
        with monkeypatch.context() as patch:
            patch.setattr(Simulation, "_solve_sharing",
                          ReferenceSimulation._solve_sharing)
            yield

    return swapped
