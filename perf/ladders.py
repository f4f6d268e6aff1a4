"""The traced pass: per-layer numbers, timed from outside.

After the timed phase every request is executed again at successively
deeper public entry points — over the wire, ``Router.dispatch``,
``predict_transfers``, the three engine calls, a cold max-min build and
solve — each execution a span whose parent is the level above it.  A
layer's self time is its level minus the next one.  Nothing here feeds an
end-to-end metric: those come from the untraced phase only.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.core.rest.json_codec import dumps, loads
from repro.horizon.whatif import run_what_if
from repro.serving.cache import forecast_cache_key
from repro.simgrid.engine import Simulation
from repro.simgrid.maxmin import SharingSystem
from repro.simgrid.platform import link_epoch

from perf.estimator import Estimate, Round, estimate, probe, speed_factor
from perf.loop import run_round
from perf.pycalls import LAYERS, OTHER, CallCounter
from perf.spans import SpanRecorder, durations, median_of, self_times
from perf.workloads import (PLATFORM, WRITE_LINK, WRITE_PLATFORM, Distinct,
                            Workload)

#: a ladder level may read this much faster than the level below it before
#: the run is declared inconsistent
LADDER_TOLERANCE = 0.05

_SHARING_COUNTS = ("solves", "components_solved", "variables_resolved",
                   "vectorized_solves")


class Tally:
    """Exact counts gathered beside the spans."""

    def __init__(self) -> None:
        self.sharing: Counter = Counter()
        self.simulations = 0
        self.route_hits = 0
        self.route_lookups = 0
        self.whatif_runs = 0
        self.whatif_epoch_bumps = 0
        self.mismatches = 0
        self.rounds: list[Round] = []


def _engine_levels(workload: Workload, recorder: SpanRecorder, tally: Tally,
                   request: Distinct, parent: int, rid: str) -> None:
    platform = workload.service.platform(PLATFORM)
    model = workload.service.model
    t0 = time.perf_counter()
    sim = Simulation(platform, model)
    t1 = time.perf_counter()
    for src, dst, size in request.transfers:
        sim.add_comm(src, dst, size)
    t2 = time.perf_counter()
    sim.run()
    t3 = time.perf_counter()
    recorder.record("simgrid.engine.construct", t0, t1, parent, rid)
    recorder.record("simgrid.engine.add_comm", t1, t2, parent, rid)
    run_span = recorder.record("simgrid.engine.run", t2, t3, parent, rid)
    stats = sim.sharing_stats
    for name in _SHARING_COUNTS:
        tally.sharing[name] += stats[name]
    tally.simulations += 1

    # one cold build + solve + re-solve of the request's sharing problem
    t0 = time.perf_counter()
    system = SharingSystem()
    vids = []
    for i, (src, dst, _size) in enumerate(request.transfers):
        _startup, weight, bound, usages = model.comm_spec(
            platform.route(src, dst))
        vids.append(system.add_variable(weight, bound, payload=i,
                                        usages=usages))
    t1 = time.perf_counter()
    system.solve()
    t2 = time.perf_counter()
    system.remove_variable(vids[0])
    system.solve()
    t3 = time.perf_counter()
    recorder.record("simgrid.maxmin.build", t0, t1, run_span, rid)
    recorder.record("simgrid.maxmin.solve", t1, t2, run_span, rid)
    recorder.record("simgrid.maxmin.resolve_after_remove", t2, t3, run_span,
                    rid)


def _request_levels(workload: Workload, recorder: SpanRecorder, tally: Tally,
                    client_spans: dict[int, int], tag: str) -> None:
    """Every entry of the round again, below the wire."""
    platform = workload.service.platform(PLATFORM)
    for entry in workload.entries:
        request = entry.request
        rid = f"{tag}{entry.index}"
        parent = client_spans[entry.index]
        if workload.has_dispatch:
            workload.before(entry)
            parent, (status, payload) = recorder.timed(
                "core.rest.router.dispatch", parent, rid,
                lambda: workload.dispatch(request))
            if status != 200 or payload != request.expected:
                tally.mismatches += 1
        if request.kind == "what_if":
            epoch = link_epoch()
            recorder.timed(
                "horizon.whatif.run", parent, rid,
                lambda: run_what_if(platform, workload.service.model,
                                    list(request.transfers),
                                    list(request.events)))
            tally.whatif_epoch_bumps += link_epoch() - epoch
            tally.whatif_runs += 1
            continue
        before = platform.route_cache_info()
        parent, answer = recorder.timed(
            "core.forecast.predict", parent, rid,
            lambda: workload.predict(request))
        after = platform.route_cache_info()
        hits = after["hits"] - before["hits"]
        tally.route_hits += hits
        tally.route_lookups += hits + after["misses"] - before["misses"]
        if not workload.has_dispatch and answer != request.expected:
            tally.mismatches += 1
        _engine_levels(workload, recorder, tally, request, parent, rid)


def _serving_ladder(workload: Workload, recorder: SpanRecorder,
                    tally: Tally) -> None:
    serving = workload.serving
    model = workload.service.model
    for request in workload.distinct:
        if request.kind != "predict":
            continue
        rid = f"serving:{request.key}"
        _, key = recorder.timed(
            "serving.cache.key", None, rid,
            lambda: forecast_cache_key(PLATFORM, model, request.specs))
        serving.predict(PLATFORM, request.specs)
        recorder.timed("serving.cache.get_hit", None, rid,
                       lambda: serving.cache.get(key))
        recorder.timed("serving.service.predict_hit", None, rid,
                       lambda: serving.predict(PLATFORM, request.specs))
        serving.cache.clear()
        miss, _ = recorder.timed(
            "serving.service.predict_miss", None, rid,
            lambda: serving.predict(PLATFORM, request.specs))
        # the same request straight away, one level down: what is left of
        # the miss is the cache bookkeeping and the batch-thread handoff
        direct, _ = recorder.timed("core.forecast.predict", miss, rid,
                                   lambda: workload.predict(request))
        _engine_levels(workload, recorder, tally, request, direct, rid)


def _json_ladder(workload: Workload, recorder: SpanRecorder) -> None:
    """The codec on the workload's real bodies, as the server runs it."""
    for request in workload.distinct:
        rid = f"json:{request.key}"
        if request.body_text is not None:
            recorder.timed("core.rest.json_codec.loads", None, rid,
                           lambda: loads(request.body_text))
        recorder.timed("core.rest.json_codec.dumps", None, rid,
                       lambda: dumps(request.expected))


def _platform_ladder(workload: Workload, recorder: SpanRecorder) -> None:
    """Route resolution cold and warm, a link write, and the first
    ``comm_spec`` after it.  Runs last: it empties the route cache."""
    platform = workload.service.platform(PLATFORM)
    model = workload.service.model
    pairs = [(s, d) for s, d, _ in workload.distinct[0].transfers]
    platform.invalidate_route_cache()
    for name in ("simgrid.platform.route_cold", "simgrid.platform.route_warm"):
        for src, dst in pairs:
            recorder.timed(name, None, f"route:{src}>{dst}",
                           lambda: platform.route(src, dst))
    link = workload.service.platform(WRITE_PLATFORM).link(WRITE_LINK)
    nominal = link.bandwidth
    try:
        for k, (src, dst) in enumerate(pairs[:16]):
            route = platform.route(src, dst)
            value = nominal * (0.9 if k % 2 == 0 else 1.0)
            start = time.perf_counter()
            link.bandwidth = value
            end = time.perf_counter()
            recorder.record("simgrid.platform.link_write", start, end, None,
                            f"write:{k}")
            recorder.timed("simgrid.models.comm_spec_cold", None,
                           f"write:{k}", lambda: model.comm_spec(route))
    finally:
        link.bandwidth = nominal


def traced_pass(workload: Workload, recorder: SpanRecorder,
                rounds: int) -> Tally:
    """``rounds`` traced rounds, then the ladders that need no client.

    Every stretch is closed by a probe, and its spans are scaled to
    reference speed with the probes on either side of it."""
    tally = Tally()
    last_probe = probe()

    def close_in_process_stretch() -> None:
        nonlocal last_probe
        closing = probe()
        recorder.scale_open_spans(
            speed_factor((last_probe + closing) / 2.0, busy_share=1.0))
        last_probe = closing

    for r in range(rounds):
        tag = f"{workload.name}:{r}:"
        rnd, client_spans = run_round(workload, recorder, tag, last_probe)
        recorder.scale_open_spans(rnd.factor)
        last_probe = rnd.probe_after_s
        tally.rounds.append(rnd)
        tally.mismatches += rnd.failed
        _request_levels(workload, recorder, tally, client_spans, tag)
        close_in_process_stretch()
    if workload.has_serving:
        _serving_ladder(workload, recorder, tally)
        for k in range(5):
            recorder.timed("serving.gateway.sync_epoch", None, f"sync:{k}",
                           lambda: workload.gateway.sync_epoch(force=True))
        close_in_process_stretch()
    if workload.has_dispatch:
        _json_ladder(workload, recorder)
    _platform_ladder(workload, recorder)
    close_in_process_stretch()
    return tally


def count_calls(workload: Workload, warm: bool = True) -> dict[str, float]:
    """Python calls per request and layer over one in-process round (after
    a warm-up round unless ``warm`` is off)."""
    with CallCounter() as counter:
        with workload.replay() as one_round:
            if warm:
                one_round()
            before = counter.snapshot()
            one_round()
            after = counter.snapshot()
    n = len(workload.entries)
    return {f"{layer}.pycalls_per_req": (after[layer] - before[layer]) / n
            for layer in (*LAYERS, OTHER)}


def ladder_violations(spans: list[dict], workload: Workload) -> list[str]:
    """Levels that read faster than the level below them by more than
    LADDER_TOLERANCE (medians): the signature of a mis-measured ladder."""
    table = durations(spans)

    def med(name: str) -> float:
        return median_of(table, name)

    pairs = [("core.forecast.predict",
              med("simgrid.engine.construct") + med("simgrid.engine.add_comm")
              + med("simgrid.engine.run"), "the three engine calls")]
    if workload.has_dispatch:
        pairs.append(("client.request", med("core.rest.router.dispatch"),
                      "core.rest.router.dispatch"))
    if workload.has_dispatch and not workload.has_serving:
        pairs.append(("core.rest.router.dispatch",
                      med("core.forecast.predict"), "core.forecast.predict"))
    return [
        f"{parent} ({med(parent) * 1e6:.0f} us) is faster than {label} "
        f"({child * 1e6:.0f} us)"
        for parent, child, label in pairs
        if med(parent) < child * (1.0 - LADDER_TOLERANCE)
    ]


def layer_metrics(workload: Workload, spans: list[dict], tally: Tally,
                  untraced: Estimate, build_s: float, stats_before: dict,
                  stats_after: dict) -> dict[str, float]:
    """Every per-layer metric by name, times at reference speed.  A layer
    this workload does not execute reports 0."""
    dur = durations(spans)
    own = self_times(spans)

    def us(name: str) -> float:
        return median_of(dur, name) * 1e6

    sims = max(1, tally.simulations)
    traced = estimate(tally.rounds)
    out = {
        "g5k.converter.build_s": build_s,
        "simgrid.platform.route_cold_us": us("simgrid.platform.route_cold"),
        "simgrid.platform.route_warm_us": us("simgrid.platform.route_warm"),
        "simgrid.platform.route_cache_hit_ratio":
            tally.route_hits / max(1, tally.route_lookups),
        "simgrid.platform.link_write_us": us("simgrid.platform.link_write"),
        "simgrid.models.comm_spec_cold_us":
            us("simgrid.models.comm_spec_cold"),
        "simgrid.engine.construct_us": us("simgrid.engine.construct"),
        "simgrid.engine.add_comm_us": us("simgrid.engine.add_comm"),
        "simgrid.engine.run_us": us("simgrid.engine.run"),
        "simgrid.msg.overhead_us":
            median_of(own, "core.forecast.predict") * 1e6,
        "simgrid.maxmin.build_us": us("simgrid.maxmin.build"),
        "simgrid.maxmin.solve_us": us("simgrid.maxmin.solve"),
        "simgrid.maxmin.resolve_after_remove_us":
            us("simgrid.maxmin.resolve_after_remove"),
        "simgrid.maxmin.solves_per_req": tally.sharing["solves"] / sims,
        "simgrid.maxmin.components_per_req":
            tally.sharing["components_solved"] / sims,
        "simgrid.maxmin.variables_resolved_per_req":
            tally.sharing["variables_resolved"] / sims,
        "simgrid.maxmin.vectorized_solves_per_req":
            tally.sharing["vectorized_solves"] / sims,
        "core.forecast.predict_us": us("core.forecast.predict"),
        "core.rest.json_codec.loads_us": us("core.rest.json_codec.loads"),
        "core.rest.json_codec.dumps_us": us("core.rest.json_codec.dumps"),
        "core.rest.router.dispatch_us": us("core.rest.router.dispatch"),
        "core.rest.server.transport_ms": 0.0,
        "serving.cache.key_us": us("serving.cache.key"),
        "serving.cache.get_hit_us": us("serving.cache.get_hit"),
        "serving.cache.hit_ratio": 0.0,
        "serving.service.predict_hit_us": us("serving.service.predict_hit"),
        "serving.service.predict_miss_us": us("serving.service.predict_miss"),
        "serving.batcher.handoff_us":
            median_of(own, "serving.service.predict_miss") * 1e6,
        "serving.gateway.overhead_ms": 0.0,
        "serving.gateway.route_p50_ms": 0.0,
        "serving.gateway.sync_epoch_ms":
            median_of(dur, "serving.gateway.sync_epoch") * 1e3,
        "serving.gateway.epoch_syncs": 0.0,
        "serving.gateway.shed": 0.0,
        "horizon.whatif.run_us": us("horizon.whatif.run"),
        "horizon.whatif.epoch_bumps_per_query":
            tally.whatif_epoch_bumps / max(1, tally.whatif_runs),
        "client.latency_ms_p95": untraced.latency_ms_p95,
        "client.latency_ms_raw_p50": untraced.latency_ms_raw_p50,
        "client.probe_ms": untraced.probe_ms,
        "client.busy_share": untraced.busy_share,
        "client.rounds": float(untraced.rounds),
        "trace.probe_ms": traced.probe_ms,
        "trace.overhead_share":
            traced.latency_ms_p50 / untraced.latency_ms_p50 - 1.0,
    }
    if workload.client_self_metric is not None:
        out[workload.client_self_metric] = median_of(
            own, "client.request") * 1e3
    if workload.has_serving:
        # the gateway's own counters over the timed phase
        cache0 = stats_before["shards"][0]["serving"]["cache"]
        cache1 = stats_after["shards"][0]["serving"]["cache"]
        hits = cache1["hits"] - cache0["hits"]
        lookups = hits + cache1["misses"] - cache0["misses"]
        gw0, gw1 = stats_before["gateway"], stats_after["gateway"]
        out["serving.cache.hit_ratio"] = hits / max(1, lookups)
        out["serving.gateway.route_p50_ms"] = (
            gw1["routes"]["predict_transfers"]["p50_ms"])
        out["serving.gateway.epoch_syncs"] = float(
            gw1["epoch"]["syncs"] - gw0["epoch"]["syncs"])
        out["serving.gateway.shed"] = float(
            gw1["admission"]["shed"] - gw0["admission"]["shed"])
    return out

