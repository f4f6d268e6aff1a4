"""Cached experiment environment.

Building ``g5k_test`` enumerates every intra-site host pair (§V-A's "less
optimized in size and loading time"), so tests and benches share one cached
instance of each platform and of the testbed.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.forecast import NetworkForecastService
from repro.g5k.converter import to_simgrid_platform
from repro.g5k.sites import (
    build_grid5000_testbed,
    grid5000_dev_reference,
    grid5000_stable_reference,
)
from repro.simgrid.platform import Platform
from repro.testbed.fluid import TestbedNetwork


@lru_cache(maxsize=None)
def g5k_test_platform() -> Platform:
    return to_simgrid_platform(grid5000_dev_reference(), "g5k_test")


@lru_cache(maxsize=None)
def g5k_cabinets_platform() -> Platform:
    return to_simgrid_platform(grid5000_stable_reference(), "g5k_cabinets")


@lru_cache(maxsize=None)
def g5k_test_with_equipment_limits() -> Platform:
    return to_simgrid_platform(
        grid5000_dev_reference(), "g5k_test", include_equipment_limits=True
    )


@lru_cache(maxsize=None)
def testbed() -> TestbedNetwork:
    return build_grid5000_testbed()


@lru_cache(maxsize=None)
def forecast_service() -> NetworkForecastService:
    return NetworkForecastService(
        {
            "g5k_test": g5k_test_platform(),
            "g5k_cabinets": g5k_cabinets_platform(),
        }
    )
