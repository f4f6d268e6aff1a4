"""What-if planning queries: latency of the sandboxed scenario path.

A what-if query runs the full dynamics machinery — transient ``LinkEvent``
schedule, epoch bumps, link-sandbox restore — on the live platform, so it is
inherently slower than a cached point forecast.  This bench pins what that
costs and that the speed never bought back correctness:

Asserted always, including smoke mode (correctness, not wall clock):

- the service's what-if answer is **bit-identical** to hand-building the
  same schedule with ``schedule_dynamics`` + ``simulate_transfers``;
- the REST round trip returns exactly the direct service answer;
- the platform is **restored** after every query (bandwidths back to
  nominal, no leaked derating);
- with warm horizon series, every forecast's interval brackets its point
  duration.

Asserted outside smoke mode (wall clock):

- the interval-annotated horizon path (three simulations: point,
  optimistic, pessimistic) costs **≤ 6x** the single-simulation what-if —
  the interval machinery must stay a constant factor, not a blow-up.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _harness import root_seed
from repro._util.rng import rng_for
from repro.analysis.tables import render_table
from repro.core.forecast import NetworkForecastService
from repro.core.framework import Pilgrim
from repro.core.rest.client import RestClient
from repro.scenarios.dynamics import schedule_dynamics
from repro.scenarios.spec import LinkEvent
from repro.simgrid.builder import build_dumbbell
from repro.simgrid.engine import Simulation
from repro.simgrid.models import LV08

SMOKE = bool(os.environ.get("REPRO_SMOKE"))
PLATFORM = "whatif-bench"
N_SIDE = 4 if SMOKE else 16        # hosts per dumbbell side
QUERIES = 6 if SMOKE else 40
FANOUT = 2 if SMOKE else 8         # transfers per query
WARMUP_OBS = 10                    # horizon observations per link
SIZES = (1e7, 5e7, 2e8, 1e9)
MAX_INTERVAL_OVERHEAD = 6.0
EVENTS = (
    LinkEvent(time=0.5, link="bottleneck", action="degrade", factor=0.5),
    LinkEvent(time=30.0, link="bottleneck", action="recover"),
)


def make_queries(rng) -> list[list[tuple]]:
    """Left-to-right transfer batches (every query crosses the bottleneck,
    so the event schedule genuinely reshapes every answer)."""
    queries = []
    for _ in range(QUERIES):
        queries.append([
            (f"left-{int(rng.integers(1, N_SIDE + 1))}",
             f"right-{int(rng.integers(1, N_SIDE + 1))}",
             float(rng.choice(SIZES)))
            for _ in range(FANOUT)
        ])
    return queries


def timed(run, queries):
    """Answer every query one at a time; returns (answers, median seconds)."""
    answers, latencies = [], []
    for query in queries:
        t0 = time.perf_counter()
        answers.append(run(query))
        latencies.append(time.perf_counter() - t0)
    return answers, float(np.median(latencies))


def test_whatif_serving_latency_and_contract(console, benchmark):
    service = NetworkForecastService(
        {PLATFORM: build_dumbbell(N_SIDE, N_SIDE)}, model=LV08())
    platform = service.platform(PLATFORM)
    nominal = platform.link("bottleneck").bandwidth
    rng = rng_for(root_seed(), "whatif-serving-bench")
    queries = make_queries(rng)

    # -- plain what-if: must match the hand-built dynamics run exactly -----
    plain_answers, plain_median = timed(
        lambda q: service.predict_what_if(PLATFORM, q, EVENTS),
        queries)
    for query, result in zip(queries, plain_answers):
        sim = Simulation(platform, service.model)
        with_events = schedule_dynamics(sim, EVENTS)
        manual = sim.simulate_transfers(list(query))
        # the schedule ran on the live platform both times: restore must
        # have put every bandwidth back or the comparison would drift
        assert platform.link("bottleneck").bandwidth == nominal
        assert [f.duration for f in result.forecasts] == \
            [c.duration for c in manual]
        assert len(result.applied) == len(with_events.applied)

    # -- horizon + intervals: three simulations, bounded overhead ----------
    for _ in range(WARMUP_OBS):
        service.observe_link(PLATFORM, "bottleneck", nominal * 0.7)
        service.observe_link(PLATFORM, "bottleneck", nominal * 0.8)
    interval_answers, interval_median = timed(
        lambda q: service.predict_what_if(PLATFORM, q, EVENTS, horizon=3),
        queries)
    for result in interval_answers:
        for forecast in result.forecasts:
            assert forecast.lower is not None
            assert forecast.lower <= forecast.duration <= forecast.upper
    assert platform.link("bottleneck").bandwidth == nominal
    overhead = interval_median / plain_median

    # -- REST round trip: the served answer is the direct answer -----------
    pilgrim = Pilgrim()
    pilgrim.register_platform(PLATFORM, platform)
    pilgrim.forecast._horizons = service._horizons  # share the warm series
    with pilgrim.serve() as server:
        client = RestClient(server.url)
        events_json = [e.to_json() for e in EVENTS]
        rest_answers, rest_median = timed(
            lambda q: client.what_if(PLATFORM, q, events_json, horizon=3),
            queries)
    direct = [
        service.predict_what_if(PLATFORM, q, EVENTS, horizon=3).to_json()
        for q in queries
    ]
    assert rest_answers == direct

    # -- report + gate ------------------------------------------------------
    console(render_table(
        ["metric", "plain what-if", "horizon + intervals", "REST"],
        [
            ("median latency (µs)", plain_median * 1e6,
             interval_median * 1e6, rest_median * 1e6),
            ("simulations per query", 1, 3, 3),
        ],
        title=f"what-if serving, dumbbell({N_SIDE}x{N_SIDE}) x {QUERIES} "
              f"queries of {FANOUT}: interval overhead {overhead:.2f}x",
    ))

    if SMOKE:
        console(f"smoke mode — interval overhead {overhead:.2f}x reported, "
                f"≤{MAX_INTERVAL_OVERHEAD}x not asserted")
    else:
        assert overhead <= MAX_INTERVAL_OVERHEAD, (
            f"interval-annotated what-if costs {overhead:.2f}x the plain "
            f"query (required ≤{MAX_INTERVAL_OVERHEAD}x)"
        )

    # the benchmarked callable: one interval-annotated what-if query
    benchmark(lambda: service.predict_what_if(PLATFORM, queries[0], EVENTS,
                                              horizon=3))
