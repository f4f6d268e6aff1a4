"""Surrogate fast path: learned first tier vs. the simulation path.

A campaign sweep over randomized scenarios on the bench topology (a
multi-hop dragonfly; a small star in smoke mode) trains the ridge + k-NN
surrogate; the bench then replays a **cache-miss** query workload (every
query unique, so the forecast cache never answers) two ways:

- **simulation** — the plain serving path: every query runs a SimGrid
  simulation;
- **surrogate** — the same serving frontend with a
  :class:`~repro.surrogate.SurrogateTier` in front, generous uncertainty
  bound so every query is surrogate-answered (asserted via the hit
  counter).

Asserted (outside smoke mode, where wall-clock ratios mean nothing):

- surrogate-answered queries have a **≥ 10x lower median latency** than
  the simulation path on the cache-miss workload (measured ~15-40x on the
  reference container — the win is a linear solve + k-NN lookup replacing
  a full fluid simulation, so it holds on any core count).

Asserted always, including smoke mode (correctness, not wall clock):

- held-out sweep accuracy stays within a **pinned error floor** (median
  |log2 predicted/actual|);
- with the bound pinned to zero the tier always falls through and the
  served answers are **bit-identical** to the serial ground truth.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _harness import root_seed
from repro._util.rng import rng_for
from repro.analysis.tables import render_table
from repro.core.forecast import NetworkForecastService
from repro.scenarios.spec import TopologySpec
from repro.scenarios.topologies import build_topology
from repro.serving.service import ForecastServingService
from repro.surrogate.dataset import SurrogateSweep, run_sweep
from repro.surrogate.model import SurrogateModel
from repro.surrogate.tier import SurrogateTier

SMOKE = bool(os.environ.get("REPRO_SMOKE"))
PLATFORM = "surrogate-bench"
# smoke: a small star with light queries (wall-clock unasserted); full: a
# multi-hop dragonfly with heavy fan-out, where a query is a genuinely
# expensive max-min solve and the learned tier's flat cost pays off
TOPOLOGY = ("star", {"n_hosts": 8}) if SMOKE else (
    "dragonfly", {"n_groups": 4, "routers_per_group": 4,
                  "hosts_per_router": 2})
FANOUTS = (1, 3) if SMOKE else (24, 32)  # transfers per query, inclusive
SWEEP_SAMPLES = 10 if SMOKE else 32
QUERIES = 12 if SMOKE else 40
SIZES = (1e6, 2e7, 1e8, 4e8)
MIN_SPEEDUP = 10.0
MAX_HOLDOUT_MEDIAN_ERROR = 0.8 if SMOKE else 0.35
MAX_LIVE_MEDIAN_ERROR = 1.0


def unique_queries(hosts: list[str], count: int, rng) -> list[list[tuple]]:
    """``count`` distinct request lists: a pure cache-miss workload.

    Hosts repeat across a query's transfers (concurrent flows pile onto
    shared links, which is what makes the fluid solve expensive); src and
    dst within one transfer are always distinct."""
    seen: set[tuple] = set()
    queries: list[list[tuple]] = []
    while len(queries) < count:
        n = int(rng.integers(FANOUTS[0], FANOUTS[1] + 1))
        query = []
        for _ in range(n):
            a, b = rng.choice(len(hosts), size=2, replace=False)
            query.append((hosts[a], hosts[b], float(rng.choice(SIZES))))
        query = tuple(query)
        if query in seen:
            continue
        seen.add(query)
        queries.append(list(query))
    return queries


def timed_replay(predict, queries):
    """Answer every query one at a time; returns (answers, median seconds)."""
    answers, latencies = [], []
    for query in queries:
        t0 = time.perf_counter()
        answers.append(predict(query))
        latencies.append(time.perf_counter() - t0)
    return answers, float(np.median(latencies))


def median_log2_error(answers, truth) -> float:
    errors = [
        abs(np.log2(got.duration / expected.duration))
        for batch, reference in zip(answers, truth)
        for got, expected in zip(batch, reference)
    ]
    return float(np.median(errors))


def test_surrogate_first_tier_latency_and_contract(console, benchmark):
    # -- train from a campaign sweep, pin the held-out accuracy floor ------
    sweep = SurrogateSweep(
        samples=SWEEP_SAMPLES, seed=7, topologies=(TOPOLOGY,), sizes=SIZES,
    )
    dataset = run_sweep(sweep)
    train, holdout = dataset.split_by_sample(0.25, seed=1)
    model = SurrogateModel.train(train)
    report = model.evaluate(holdout.features, holdout.targets)
    assert report["median_abs_log2_error"] <= MAX_HOLDOUT_MEDIAN_ERROR, (
        f"held-out sweep accuracy {report['median_abs_log2_error']:.3f} "
        f"exceeds the pinned floor {MAX_HOLDOUT_MEDIAN_ERROR}"
    )

    service = NetworkForecastService(
        {PLATFORM: build_topology(TopologySpec(*TOPOLOGY))})
    hosts = [h.name for h in service.platform(PLATFORM).hosts()]
    rng = rng_for(root_seed(), "surrogate-serving-bench")
    queries = unique_queries(hosts, QUERIES, rng)
    truth = [service.predict_transfers(PLATFORM, q) for q in queries]

    # -- simulation path on the cache-miss workload ------------------------
    with ForecastServingService(service, window=0.0,
                                cache_size=4096) as serving:
        sim_answers, sim_median = timed_replay(
            lambda q: serving.predict(PLATFORM, q), queries)
        sim_stats = serving.stats()
    assert sim_answers == truth
    assert sim_stats["cache"]["hits"] == 0  # genuinely all misses

    # -- surrogate path: every query must be surrogate-answered ------------
    tier = SurrogateTier(model, bound=10.0)
    with ForecastServingService(service, window=0.0, cache_size=4096,
                                surrogate=tier) as serving:
        # one untimed replay warms the tier's per-route feature cache
        # (steady-state serving; surrogate answers are never cached, so
        # the forecast cache stays cold)
        for query in queries:
            serving.predict(PLATFORM, query)
        sur_answers, sur_median = timed_replay(
            lambda q: serving.predict(PLATFORM, q), queries)
        assert serving.cache.info()["hits"] == 0
    assert tier.stats()["hits"] == 2 * QUERIES  # warm-up + timed, all hits
    live_error = median_log2_error(sur_answers, truth)
    assert live_error <= MAX_LIVE_MEDIAN_ERROR

    # -- bound 0: the tier always falls through, bit-identically -----------
    fallback_tier = SurrogateTier(model, bound=0.0)
    with ForecastServingService(service, window=0.0, cache_size=0,
                                surrogate=fallback_tier) as serving:
        fallback = [serving.predict(PLATFORM, q) for q in queries]
    assert fallback == truth  # dataclass equality: bitwise durations
    assert fallback_tier.stats()["hits"] == 0
    assert fallback_tier.stats()["fallbacks"]["uncertainty"] == QUERIES

    # -- report + gate ------------------------------------------------------
    speedup = sim_median / sur_median
    console(render_table(
        ["metric", "simulation path", "surrogate tier"],
        [
            ("median latency (µs)", sim_median * 1e6, sur_median * 1e6),
            ("speedup", 1.0, speedup),
            ("median |log2 err|", 0.0, live_error),
        ],
        title=f"surrogate serving, {TOPOLOGY[0]} x {QUERIES} cache-miss "
              f"queries: {speedup:.1f}x, holdout err "
              f"{report['median_abs_log2_error']:.3f}",
    ))

    if SMOKE:
        console(f"smoke mode — speedup {speedup:.2f}x reported, "
                f"≥{MIN_SPEEDUP}x not asserted")
    else:
        assert speedup >= MIN_SPEEDUP, (
            f"surrogate tier only {speedup:.2f}x faster than the simulation "
            f"path (required ≥{MIN_SPEEDUP}x)"
        )

    # the benchmarked callable: one surrogate-answered serving query
    with ForecastServingService(service, window=0.0, cache_size=0,
                                surrogate=tier) as serving:
        benchmark(lambda: serving.predict(PLATFORM, queries[0]))
