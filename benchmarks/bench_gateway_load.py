"""Gateway under load: 1k+ keep-alive clients, SLOs, sheds, epoch bumps.

The headline bench for the sharded serving gateway.  An asyncio load
generator (one thread, one persistent connection per client) hammers
``POST /pilgrim/predict_transfers`` over a fleet of star platforms and the
bench asserts the gateway's whole contract:

- **correctness** — every 200 answer, under any concurrency, is
  bit-identical to the serial ground truth simulated before any server
  existed (caches are off, so every answer is a real simulation);
- **throughput** — the sharded gateway sustains ≥ 2x the throughput of
  the single-process threaded server (``Pilgrim.serve()``) on the same
  workload (asserted on ≥ 4-core hosts where shard processes actually get
  cores; reported otherwise);
- **scale** — a sustained phase with 1000+ concurrent keep-alive clients
  completes with zero dropped responses (the swarm sits below the
  admission limit), zero transport errors, and p50/p99 within bounds;
- **admission** — against a deliberately tiny in-flight budget the
  overload is shed as clean ``503 + Retry-After`` (every request gets an
  answer: completed + shed equals offered, nothing hangs);
- **epoch propagation** — a link recalibration in the bench process while
  the swarm is mid-flight: every observed answer matches either the old
  or the new ground truth exactly, and after the load drains the gateway
  answers with the new truth.

Smoke mode (``REPRO_SMOKE``) scales every phase down to seconds and skips
the wall-clock assertions; correctness is asserted always.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.tables import render_table
from repro.core.framework import Pilgrim
from repro.core.rest.client import RestClient
from repro.core.rest.json_codec import dumps
from repro.serving.factories import star_fleet_factory, star_fleet_service
from repro.serving.gateway import GatewayConfig, ShardedGateway
from repro.serving.gateway.loadgen import LoadQuery, run_load

SMOKE = bool(os.environ.get("REPRO_SMOKE"))
N_PLATFORMS = 4 if SMOKE else 8
N_HOSTS = 8
N_SHARDS = 2 if SMOKE else max(2, min(4, os.cpu_count() or 1))

#: Phase sizes (clients, requests per client).
BASELINE_LOAD = (8, 3) if SMOKE else (128, 4)
SUSTAINED_LOAD = (24, 3) if SMOKE else (1100, 3)
ADMISSION_LOAD = (16, 3) if SMOKE else (64, 4)
EPOCH_LOAD = (8, 6) if SMOKE else (64, 8)

MIN_SPEEDUP = 2.0          # gateway vs. single process, ≥4 cores only
P50_BOUND_MS = 5_000.0     # closed-loop queueing at 1k+ clients included
P99_BOUND_MS = 20_000.0


def fleet_queries() -> tuple[list[LoadQuery], list[list[dict]]]:
    """One POST query per platform + its serial ground-truth answer."""
    service = star_fleet_service(N_PLATFORMS, N_HOSTS)
    queries, truths = [], []
    for pi, name in enumerate(sorted(service.platform_names())):
        hosts = [h.name for h in service.platform(name).hosts()]
        transfers = [
            (hosts[pi % N_HOSTS], hosts[(pi + 1) % N_HOSTS], 5e7),
            (hosts[(pi + 2) % N_HOSTS], hosts[(pi + 3) % N_HOSTS],
             1e8 + pi * 1e7),
        ]
        body = dumps({"transfers": [[s, d, z] for s, d, z in transfers]})
        queries.append(LoadQuery(
            "POST", f"/pilgrim/predict_transfers/{name}",
            body.encode("utf-8")))
        truths.append([f.to_json() for f in
                       service.predict_transfers(name, transfers)])
    return queries, truths


def assert_bit_identical(report, truths, phase: str) -> None:
    """Every distinct 200 body per query equals the serial ground truth."""
    for qi, distinct in report.bodies.items():
        assert len(distinct) == 1, (
            f"{phase}: query {qi} produced {len(distinct)} distinct answers")
        assert json.loads(next(iter(distinct))) == truths[qi], (
            f"{phase}: query {qi} diverged from serial ground truth")


def run_single_process_baseline(queries, truths, clients, requests):
    """The same swarm against the classic threaded server (cache off)."""
    service = star_fleet_service(N_PLATFORMS, N_HOSTS)
    pilgrim = Pilgrim(platforms={name: service.platform(name)
                                 for name in service.platform_names()},
                      model=service.model)
    pilgrim.enable_serving(window=0.0, cache_size=0)
    try:
        with pilgrim.serve() as server:
            host, port = server.address
            report = run_load(host, port, queries, clients=clients,
                              requests_per_client=requests)
    finally:
        pilgrim.disable_serving()
    assert report.errors == 0 and report.connect_failures == 0
    assert report.completed == clients * requests
    assert_bit_identical(report, truths, "baseline")
    return report


def test_gateway_load(console, trajectory, benchmark):
    queries, truths = fleet_queries()
    factory = star_fleet_factory(N_PLATFORMS, N_HOSTS)

    clients, requests = BASELINE_LOAD
    baseline = run_single_process_baseline(queries, truths, clients,
                                           requests)

    # -- throughput: sharded gateway vs. single process (caches off) -------------
    config = GatewayConfig(shards=N_SHARDS, window=0.0, cache_size=0)
    with ShardedGateway(factory, config) as gateway:
        host, port = gateway.address
        platform_split = gateway.ring.distribution(
            sorted(gateway.service.platform_names()))
        gateway_report = run_load(host, port, queries, clients=clients,
                                  requests_per_client=requests)
        assert gateway_report.errors == 0
        assert gateway_report.connect_failures == 0
        assert gateway_report.shed == 0
        assert gateway_report.completed == clients * requests
        assert_bit_identical(gateway_report, truths, "gateway")

        # -- scale: the 1k+ keep-alive swarm, still below the admission limit ----
        clients, requests = SUSTAINED_LOAD
        assert clients < config.max_inflight + config.queue_depth
        sustained = run_load(host, port, queries, clients=clients,
                             requests_per_client=requests)
        assert sustained.connect_failures == 0, (
            f"{sustained.connect_failures} clients could not connect")
        assert sustained.errors == 0
        assert sustained.shed == 0, (
            f"{sustained.shed} sheds below the admission limit")
        assert sustained.completed == clients * requests, (
            f"dropped {clients * requests - sustained.completed} responses")
        assert_bit_identical(sustained, truths, "sustained")

        with RestClient(gateway.url) as rest:
            stats = rest.stats()
        assert stats["gateway"]["admission"]["shed"] == 0
        assert all(stats["gateway"]["shard_alive"])
        assert sum(stats["gateway"]["shard_dispatched"]) >= (
            sustained.completed + gateway_report.completed)

    speedup = (gateway_report.throughput_rps / baseline.throughput_rps
               if baseline.throughput_rps else 0.0)
    p50, p99 = sustained.percentile_ms(0.50), sustained.percentile_ms(0.99)

    # -- admission: a tiny budget must shed cleanly, never hang ------------------
    tiny = GatewayConfig(shards=2, window=0.0, cache_size=0,
                         max_inflight=2, queue_depth=2, retry_after_s=0.5)
    clients, requests = ADMISSION_LOAD
    with ShardedGateway(factory, tiny) as gateway:
        host, port = gateway.address
        overload = run_load(host, port, queries, clients=clients,
                            requests_per_client=requests)
        assert overload.errors == 0 and overload.connect_failures == 0
        assert overload.completed + overload.shed == clients * requests, (
            "an offered request neither completed nor shed — a hang")
        assert overload.shed > 0, (
            f"{clients} clients against a {tiny.max_inflight}+"
            f"{tiny.queue_depth} budget never shed")
        assert overload.retry_after_seen == {f"{tiny.retry_after_s:g}"}
        assert_bit_identical(overload, truths, "overload")
        with RestClient(gateway.url) as rest:
            assert rest.stats()["gateway"]["admission"]["shed"] \
                == overload.shed

    # -- epoch propagation under live load ---------------------------------------
    config = GatewayConfig(shards=2, window=0.0, cache_size=0)
    clients, requests = EPOCH_LOAD
    with ShardedGateway(factory, config) as gateway:
        host, port = gateway.address
        target = sorted(gateway.service.platform_names())[0]
        link = gateway.service.platform(target).links()[0]
        original = link.bandwidth

        def mutate_mid_flight():
            time.sleep(0.05)
            link.bandwidth = original / 2  # the live recalibration

        with ThreadPoolExecutor(max_workers=1) as pool:
            mutation = pool.submit(mutate_mid_flight)
            live = run_load(host, port, queries, clients=clients,
                            requests_per_client=requests)
            mutation.result()

        new_service = star_fleet_service(N_PLATFORMS, N_HOSTS)
        new_service.platform(target).link(link.name).bandwidth = original / 2
        new_truths = [
            [f.to_json() for f in new_service.predict_transfers(
                name, [(s, d, z) for s, d, z in
                       json.loads(q.body)["transfers"]])]
            for name, q in zip(sorted(new_service.platform_names()), queries)
        ]

        assert live.errors == 0 and live.shed == 0
        assert live.completed == clients * requests
        for qi, distinct in live.bodies.items():
            for body in distinct:
                answer = json.loads(body)
                assert answer in (truths[qi], new_truths[qi]), (
                    f"query {qi} answered neither the old nor the new "
                    f"ground truth during the epoch transition")

        # once the load drains, every answer is the new truth
        with RestClient(gateway.url) as rest:
            for name, new_truth in zip(
                    sorted(new_service.platform_names()), new_truths):
                transfers = [tuple(t) for t in json.loads(
                    queries[sorted(new_service.platform_names())
                            .index(name)].body)["transfers"]]
                assert rest.post_predict_transfers(name, transfers) \
                    == new_truth
            epoch = rest.stats()["gateway"]["epoch"]
        assert epoch["syncs"] >= 1
        assert epoch["parent"] == epoch["synced"]

    # -- report + trajectory -----------------------------------------------------
    console(render_table(
        ["metric", "single process", f"gateway x{N_SHARDS} shards"],
        [
            ("throughput (req/s)", baseline.throughput_rps,
             gateway_report.throughput_rps),
            ("speedup", 1.0, speedup),
            ("p50 (ms)", baseline.percentile_ms(0.50),
             gateway_report.percentile_ms(0.50)),
            ("p99 (ms)", baseline.percentile_ms(0.99),
             gateway_report.percentile_ms(0.99)),
        ],
        title=f"gateway load, {N_PLATFORMS} platforms over {N_SHARDS} "
              f"shards (split {sorted(platform_split.values())}); "
              f"sustained {sustained.clients} clients: "
              f"{sustained.throughput_rps:.0f} req/s, "
              f"p50 {p50:.0f} ms, p99 {p99:.0f} ms; "
              f"overload shed {overload.shed}/{overload.clients * ADMISSION_LOAD[1]}",
    ))
    trajectory(
        "gateway_load",
        shards=N_SHARDS,
        platforms=N_PLATFORMS,
        cores=os.cpu_count(),
        baseline_rps=baseline.throughput_rps,
        gateway_rps=gateway_report.throughput_rps,
        speedup=speedup,
        sustained_clients=sustained.clients,
        sustained_completed=sustained.completed,
        sustained_rps=sustained.throughput_rps,
        sustained_p50_ms=p50,
        sustained_p99_ms=p99,
        overload_offered=overload.clients * ADMISSION_LOAD[1],
        overload_completed=overload.completed,
        overload_shed=overload.shed,
        epoch_syncs=epoch["syncs"],
    )

    if SMOKE:
        console(f"smoke mode — speedup {speedup:.2f}x and latency bounds "
                f"reported, not asserted")
    else:
        assert p50 <= P50_BOUND_MS, f"sustained p50 {p50:.0f} ms over bound"
        assert p99 <= P99_BOUND_MS, f"sustained p99 {p99:.0f} ms over bound"
        if (os.cpu_count() or 1) >= 4:
            assert speedup >= MIN_SPEEDUP, (
                f"gateway only {speedup:.2f}x the single-process server "
                f"on a {os.cpu_count()}-core host (required "
                f"≥{MIN_SPEEDUP}x)")
        else:
            console(f"{os.cpu_count()}-core host — ≥{MIN_SPEEDUP}x "
                    f"throughput asserted on ≥4 cores only "
                    f"(measured {speedup:.2f}x)")

    # the benchmarked callable: one keep-alive burst against a live gateway
    with ShardedGateway(factory, GatewayConfig(shards=2, window=0.0)) as gw:
        host, port = gw.address
        benchmark(lambda: run_load(host, port, queries, clients=4,
                                   requests_per_client=2))
