"""Cached experiment environment.

Building ``g5k_test`` enumerates every intra-site host pair (§V-A's "less
optimized in size and loading time"), so the tests share one cached
instance of each platform and of the testbed.

Those cached builds live as long as the process.  The two Grid'5000
platforms were once some 220k objects the cyclic collector tracks (4.8k
since their route tables became id arrays); left in its generations, they
cost four full collections inside the builds and then a walk of both
platforms per full collection: stop-the-world pauses of 170–200 ms in a
gateway's processes on a 2-vCPU VM, past the paper's 100 ms bound
(§IV-C2).  So each cached build runs with the collector off and ends in
``gc.freeze()``: the objects alive then move to the permanent generation,
which no collection scans, and processes forked afterwards (the gateway
shards) inherit them frozen.  A frozen cycle is never
reclaimed, so only these process-lifetime builds are frozen; every other
platform (``to_simgrid_platform``, ``Pilgrim.with_grid5000``, a test's own
build) stays collectable.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator

from repro.core.forecast import NetworkForecastService
from repro.g5k.converter import to_simgrid_platform
from repro.g5k.sites import (
    build_grid5000_testbed,
    grid5000_dev_reference,
    grid5000_stable_reference,
)
from repro.simgrid.platform import Platform
from repro.testbed.fluid import TestbedNetwork


@contextmanager
def _frozen_build() -> Iterator[None]:
    """Run a process-lifetime build without the cyclic collector, then
    freeze everything alive out of its reach.  What is already garbage is
    collected first, so it is not frozen; the caller's enabled/disabled
    state is restored; a build that raises freezes nothing."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
    gc.freeze()


@lru_cache(maxsize=None)
def g5k_test_platform() -> Platform:
    with _frozen_build():
        return to_simgrid_platform(grid5000_dev_reference(), "g5k_test")


@lru_cache(maxsize=None)
def g5k_cabinets_platform() -> Platform:
    with _frozen_build():
        return to_simgrid_platform(grid5000_stable_reference(), "g5k_cabinets")


@lru_cache(maxsize=None)
def g5k_test_with_equipment_limits() -> Platform:
    with _frozen_build():
        return to_simgrid_platform(
            grid5000_dev_reference(), "g5k_test", include_equipment_limits=True
        )


@lru_cache(maxsize=None)
def testbed() -> TestbedNetwork:
    with _frozen_build():
        return build_grid5000_testbed()


@lru_cache(maxsize=None)
def forecast_service() -> NetworkForecastService:
    return NetworkForecastService(
        {
            "g5k_test": g5k_test_platform(),
            "g5k_cabinets": g5k_cabinets_platform(),
        }
    )
