"""The horizon series and their feeds: the recalibration loop, the manual
``observe_link``, and a projection racing an observation."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.forecast import ForecastQuery, NetworkForecastService
from repro.horizon.forecast import InvalidObservation, PlatformHorizon
from repro.metrology.demo import DEMO_PLATFORM, StarMetrologyDemo
from repro.simgrid.builder import build_dumbbell

WARMUP = 3
STEPS = 9
HORIZON = 2


def projected_bandwidths(demo: StarMetrologyDemo) -> dict[str, float]:
    """``factor × live bandwidth`` per link, ``HORIZON`` steps ahead."""
    factors = demo.service.horizon_capacity_factors(DEMO_PLATFORM, HORIZON)
    return {link: factor * demo.platform.link(link).bandwidth
            for link, factor in factors.items()}


def test_a_loop_fed_service_projects_from_warm_series():
    demo = StarMetrologyDemo.for_run(n_hosts=4, period=15.0, seed=3,
                                     warmup=WARMUP, steps=STEPS,
                                     degrade_factor=0.3)
    demo.warmup(WARMUP)
    forecasts, _ = demo.service.answer(ForecastQuery.of(
        DEMO_PLATFORM, demo.workload(), horizon=HORIZON))
    for forecast in forecasts:
        assert forecast.lower is not None and forecast.upper is not None
        assert forecast.lower <= forecast.duration <= forecast.upper

    before = projected_bandwidths(demo)
    assert sorted(before) == [m.link for m in demo.feed.monitors]
    updates = demo.run(STEPS)
    assert demo.degraded_link in {u.link for u in updates}
    after = projected_bandwidths(demo)
    assert after[demo.degraded_link] < 0.5 * before[demo.degraded_link]
    # a healthy link moves by probe noise only, which the loop itself
    # counts as no change (its min_rel_change hysteresis)
    tolerance = 1.0 - demo.loop.min_rel_change
    for link in before:
        if link != demo.degraded_link:
            assert after[link] >= tolerance * before[link], link


def test_observe_link_feeds_a_loop_series_in_its_units():
    demo = StarMetrologyDemo(n_hosts=2, period=15.0, seed=3)
    demo.warmup(WARMUP)
    horizon = demo.service.horizon_state(DEMO_PLATFORM)
    assert horizon is demo.loop.horizon
    link = "star-2-link"
    ratio = horizon.ratios[link]
    assert ratio > 1.0  # probe goodput sits below link capacity
    series = horizon.forecaster_for(link)
    seen = series.observations
    demo.service.observe_link(DEMO_PLATFORM, link, 1e8)
    assert series.observations == seen + 1
    assert series._window[-1] == 1e8 / ratio


def test_a_link_only_observe_link_feeds_keeps_ratio_one():
    service = NetworkForecastService({"dumb": build_dumbbell()})
    service.observe_link("dumb", "bottleneck", 5e7)
    state = service.horizon_state("dumb")
    assert "bottleneck" not in state.ratios
    assert state.forecaster_for("bottleneck")._window[-1] == 5e7


def test_observation_beside_projection_never_races():
    """``_trend`` and ``_sigma`` iterate the series' windows in Python; an
    observation landing mid-iteration used to raise ``RuntimeError: deque
    mutated during iteration``."""
    platform = build_dumbbell()
    horizon = PlatformHorizon(platform)
    nominal = platform.link("bottleneck").bandwidth
    for i in range(40):
        horizon.observe("bottleneck", nominal * (0.4 + 0.03 * (i % 7)))
    done = threading.Event()
    errors: list[BaseException] = []

    def observe():
        try:
            for i in range(4000):
                horizon.observe("bottleneck",
                                nominal * (0.4 + 0.03 * (i % 7)))
        finally:
            done.set()

    def project():
        while not done.is_set():
            try:
                horizon.capacity_factors_at(3)
            except RuntimeError as exc:
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=observe),
                   threading.Thread(target=project)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
def test_the_one_entry_refuses_a_bad_observation(bad):
    horizon = PlatformHorizon(build_dumbbell())
    with pytest.raises(InvalidObservation, match="finite and > 0"):
        horizon.observe("bottleneck", bad)
    assert len(horizon) == 0
