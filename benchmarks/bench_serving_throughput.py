"""Serving throughput: warm worker pool vs. cold per-call pools.

A closed-loop load generator replays the same repeated mixed workload (many
small forecast batches, varying fan-out and sizes) two ways:

- **cold** — ``predict_transfers_many(workers=N)``: a throwaway pool per
  call, so every batch pays process start-up plus a platform rebuild in
  each worker;
- **warm** — the same calls with a :class:`~repro.serving.pool.WarmWorkerPool`
  injected: workers built their service once and keep the platform, route
  LRU and solver arena resident across batches.

Asserted (outside smoke mode, where wall-clock ratios mean nothing):

- the warm path is ≥ 3x faster than the cold path on the repeated workload
  (measured ~50x on the 1-core reference container — the win is avoided
  per-call overhead, not parallelism, so it holds on any core count), and
- every answer is **bit-identical** across cold, warm, serial
  one-at-a-time, and the full serving frontend with the cache disabled and
  enabled (determinism is a correctness signal and is asserted always,
  including smoke mode).
"""

from __future__ import annotations

import os
import time

from repro._util.rng import rng_for
from repro.analysis.tables import render_table
from repro.experiments import environment
from repro.serving.factories import STAR_PLATFORM, star_factory, star_forecast_service
from repro.serving.pool import WarmWorkerPool
from repro.serving.service import ForecastServingService

SMOKE = bool(os.environ.get("REPRO_SMOKE"))
N_HOSTS = 16 if SMOKE else 64
WORKERS = 2
CALLS = 3 if SMOKE else 10
BATCH = 4 if SMOKE else 6
MIN_SPEEDUP = 3.0


def mixed_workload(hosts: list[str], calls: int, batch: int) -> list[list[list[tuple]]]:
    """``calls`` batches of ``batch`` request lists with mixed fan-out/sizes."""
    rng = rng_for(environment.root_seed(), "serving-throughput")
    workload = []
    for _ in range(calls):
        requests = []
        for _ in range(batch):
            n = int(rng.integers(1, 5))
            pairs = rng.choice(len(hosts), size=(n, 2), replace=False)
            requests.append([
                (hosts[a], hosts[b], float(rng.choice([1e7, 5e7, 2e8])))
                for a, b in pairs
            ])
        workload.append(requests)
    return workload


def run_cold_vs_warm(service, workload):
    factory = star_factory(N_HOSTS)

    t0 = time.perf_counter()
    cold = [
        service.predict_transfers_many(
            STAR_PLATFORM, requests, workers=WORKERS, service_factory=factory)
        for requests in workload
    ]
    cold_dt = time.perf_counter() - t0

    with WarmWorkerPool(factory, workers=WORKERS) as pool:
        # touch the pool so worker initializers are done before timing:
        # amortized start-up is the whole point of a long-lived pool
        service.predict_transfers_many(STAR_PLATFORM, workload[0][:1],
                                       executor=pool)
        t0 = time.perf_counter()
        warm = [
            service.predict_transfers_many(
                STAR_PLATFORM, requests, executor=pool)
            for requests in workload
        ]
        warm_dt = time.perf_counter() - t0
        pool_stats = pool.stats()
    return cold, warm, cold_dt, warm_dt, pool_stats


def run_serving_frontend(service, workload, cache_size, rounds=2):
    """Replay the workload ``rounds`` times through the full serving path
    (the closed loop: round 2 repeats round 1's queries exactly)."""
    answers = []
    with ForecastServingService(service, window=0.001,
                                cache_size=cache_size) as serving:
        for _ in range(rounds):
            answers.append([
                [serving.predict(STAR_PLATFORM, transfers)
                 for transfers in requests]
                for requests in workload
            ])
        stats = serving.stats()
    return answers, stats


def test_serving_throughput_and_equivalence(console, benchmark):
    service = star_forecast_service(N_HOSTS)
    hosts = [h.name for h in service.platform(STAR_PLATFORM).hosts()]
    workload = mixed_workload(hosts, CALLS, BATCH)

    cold, warm, cold_dt, warm_dt, pool_stats = run_cold_vs_warm(
        service, workload)

    # serial one-at-a-time ground truth
    serial = [
        [service.predict_transfers(STAR_PLATFORM, transfers)
         for transfers in requests]
        for requests in workload
    ]

    # bit-identical across every execution path (dataclass float equality)
    assert cold == serial
    assert warm == serial

    # the full serving frontend: batched answers must match one-at-a-time
    # answers bitwise, with the cache disabled and enabled; every replay
    # round must answer identically whether simulated or served from cache
    uncached, uncached_stats = run_serving_frontend(service, workload,
                                                    cache_size=0)
    cached, cached_stats = run_serving_frontend(service, workload,
                                                cache_size=4096)
    for round_answers in uncached + cached:
        assert round_answers == serial
    assert uncached_stats["cache"]["hits"] == 0
    # the replayed round is pure cache traffic when the cache is on
    hits = cached_stats["cache"]["hits"]
    total = hits + cached_stats["cache"]["misses"]
    assert hits >= CALLS * BATCH
    assert total == 2 * CALLS * BATCH

    speedup = cold_dt / warm_dt
    console(render_table(
        ["metric", "cold (pool per call)", "warm (resident pool)"],
        [
            ("wall time (s)", cold_dt, warm_dt),
            ("speedup", 1.0, speedup),
            ("batches", CALLS, pool_stats["batches"] - 1),
            ("requests", CALLS * BATCH, pool_stats["requests"] - 1),
        ],
        title=f"serving throughput, star({N_HOSTS}) x {WORKERS} workers: "
              f"{speedup:.1f}x warm over cold "
              f"(cache hits {hits}/{total})",
    ))

    if SMOKE:
        console(f"smoke mode — speedup {speedup:.2f}x reported, "
                f"≥{MIN_SPEEDUP}x not asserted")
    else:
        assert speedup >= MIN_SPEEDUP, (
            f"warm pool only {speedup:.2f}x faster than cold per-call pools "
            f"(required ≥{MIN_SPEEDUP}x)"
        )

    # the benchmarked callable: one warm serving-path batch (cache on)
    with ForecastServingService(service, window=0.0,
                                cache_size=4096) as serving:
        benchmark(lambda: [serving.predict(STAR_PLATFORM, transfers)
                           for transfers in workload[0]])
