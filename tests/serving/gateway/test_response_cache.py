"""The gateway's front-end response cache: hits are bytes, never stale.

Every assertion is on response bytes or on ``shard_dispatched`` (did the
request cross the pipe?), never on timing.  The properties pinned here:

- a hit is the byte string the filling miss returned, and decodes to an
  in-process ``predict_transfers``;
- a parent link write retires its platform's older entries (the other
  platforms': ``tests/serving/test_platform_stamps.py``); a ``what_if`` writes its
  shard's links only transiently and retires none, front end or shard;
- a read that *overlapped* a write or a what-if is never served from
  either tier;
- only what the shard's own ``ForecastCache`` may answer is stored (200,
  ``predict_transfers``, no ``horizon``), and nothing when the surrogate
  tier is armed or ``cache_size`` is 0;
- a dead shard still answers its hits.

The overlap cases need a request that is *in flight* at a chosen moment:
``gated_star_service`` is built inside the shard process and parks any
request carrying ``GATE_SIZE`` until the test releases it;
``sandboxed_gate_service`` parks a what-if inside its link sandbox, right
after its first event degraded ``LINK``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial

import pytest

from repro.core.forecast import NetworkForecastService
from repro.serving.gateway.gateway import GatewayConfig, ShardedGateway
from repro.simgrid.engine import Simulation
from repro.surrogate.model import SurrogateModel
from serving_helpers import (
    STAR_PLATFORM,
    RawHttp,
    star_factory,
    star_fleet_factory,
    star_forecast_service,
)

N_HOSTS = 8
HOSTS = [f"{STAR_PLATFORM}-{i}" for i in range(1, N_HOSTS + 1)]
#: the link every query below crosses (host 1's uplink)
LINK = f"{HOSTS[0]}-link"
QUERIES = [
    [(HOSTS[0], HOSTS[1], 5e7)],
    [(HOSTS[0], HOSTS[3], 1e8), (HOSTS[4], HOSTS[5], 2e7)],
    [(HOSTS[1], HOSTS[0], 5e7), (HOSTS[0], HOSTS[7], 5e7)],
]
#: a transfer of this size parks inside the shard until released
GATE_SIZE = 12345.0
PREDICT = f"/pilgrim/predict_transfers/{STAR_PLATFORM}"
WHAT_IF = f"/pilgrim/what_if/{STAR_PLATFORM}"


def truth(transfers, platform=STAR_PLATFORM, bandwidth_factor=1.0):
    """In-process answer from a fresh build (optionally with LINK scaled).

    Scaling LINK is a committed write on the fresh platform: it stamps
    that platform only, so no gateway's entries retire; tests that count
    dispatches still compute their truths first."""
    service = star_forecast_service(N_HOSTS, platform)
    service.platform(platform).link(
        f"{platform}-1-link").bandwidth *= bandwidth_factor
    return [f.to_json() for f in
            service.predict_transfers(platform, transfers)]


def body_of(transfers, **extra) -> bytes:
    return json.dumps({"transfers": [list(t) for t in transfers],
                       **extra}).encode("utf-8")


def get_target(transfers, path=PREDICT, extra="") -> str:
    query = "&".join(f"transfer={s},{d},{z!r}" for s, d, z in transfers)
    return f"{path}?{query}{extra}"


class Client(RawHttp):
    """One keep-alive connection to ``gateway``, returning raw ``(status,
    body bytes)``."""

    def __init__(self, gateway: ShardedGateway) -> None:
        super().__init__(gateway.address, timeout=30.0)

    def post(self, transfers, path=PREDICT, **extra) -> tuple[int, bytes]:
        return self.exchange("POST", path, body_of(transfers, **extra))


@contextmanager
def running(factory=None, service=None, **config):
    config.setdefault("shards", 1)
    config.setdefault("window", 0.0)
    with ShardedGateway(factory or star_factory(N_HOSTS),
                        GatewayConfig(**config), service=service) as gw:
        yield gw


def dispatched(gateway) -> int:
    return sum(gateway.stats()["shard_dispatched"])


def cache_info(gateway) -> dict:
    return gateway.stats()["response_cache"]


def shard_cache_info(gateway) -> dict:
    """Shard 0's own ``ForecastCache`` counters (front hits not merged)."""
    return gateway.shards[0].request_stats().result(10.0)[1][
        "serving"]["cache"]


@pytest.fixture(scope="module")
def gateway():
    with running() as gw:
        yield gw


# -- hits ----------------------------------------------------------------------


def test_hit_is_byte_identical_and_never_reaches_the_shard(gateway):
    with Client(gateway) as client:
        for transfers in QUERIES:
            for method, target, body in (
                    ("POST", PREDICT, body_of(transfers)),
                    ("GET", get_target(transfers), None)):
                before, hits = dispatched(gateway), cache_info(gateway)["hits"]
                status, miss = client.exchange(method, target, body)
                assert status == 200
                assert dispatched(gateway) == before + 1
                status, hit = client.exchange(method, target, body)
                assert status == 200
                assert hit == miss
                assert json.loads(hit) == truth(transfers)
                assert dispatched(gateway) == before + 1
                assert cache_info(gateway)["hits"] == hits + 1


def test_hits_are_admitted_and_recorded_under_their_route(gateway):
    with Client(gateway) as client:
        client.post(QUERIES[0])
        admitted = gateway.admission.snapshot()["admitted"]
        count = gateway.stats()["routes"]["predict_transfers"]["count"]
        before = dispatched(gateway)
        assert client.post(QUERIES[0])[0] == 200
        assert dispatched(gateway) == before
        assert gateway.admission.snapshot()["admitted"] == admitted + 1
        assert gateway.admission.snapshot()["in_flight"] == 0
        assert (gateway.stats()["routes"]["predict_transfers"]["count"]
                == count + 1)


def test_stats_count_a_front_end_hit_as_a_hit_of_the_shards_cache_tier(
        gateway):
    """``shards[i].serving.cache`` keeps meaning "answered without
    simulating" (perf/ reads its hit ratio): front-end hits are added to
    ``hits`` and shown on their own as ``front_hits``."""
    def shard_cache(client):
        stats = json.loads(client.exchange("GET", "/pilgrim/stats")[1])
        return stats["shards"][0]["serving"]["cache"], stats["gateway"]

    with Client(gateway) as client:
        client.post(QUERIES[0])
        before, _ = shard_cache(client)
        client.post(QUERIES[0])
        after, top = shard_cache(client)
    assert after["front_hits"] == before["front_hits"] + 1
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]
    assert after["front_hits"] == top["response_cache"]["hits"]  # one shard
    assert {"hits", "misses", "evictions", "size", "maxsize",
            "fills_refused", "uncacheable"} <= set(top["response_cache"])


# -- invalidation: parent link writes --------------------------------------------


def test_link_write_between_identical_requests_changes_the_answer(gateway):
    link = gateway.service.platform(STAR_PLATFORM).link(LINK)
    original = link.bandwidth
    with Client(gateway) as client:
        _, first = client.post(QUERIES[0])
        assert client.post(QUERIES[0])[1] == first  # cached
        link.bandwidth = original / 2
        try:
            before = dispatched(gateway)
            _, second = client.post(QUERIES[0])
            assert dispatched(gateway) == before + 1
            assert second != first
            assert json.loads(second) == truth(QUERIES[0],
                                               bandwidth_factor=0.5)
        finally:
            link.bandwidth = original
        # restoring is a write too: the answer swings back, from the shard
        before = dispatched(gateway)
        assert client.post(QUERIES[0])[1] == first
        assert dispatched(gateway) == before + 1


# -- overlap: requests parked inside the shard ---------------------------------------


def gated_star_service(started, release) -> NetworkForecastService:
    """Runs inside the shard process only: patches *that* process's service
    class so a query carrying ``GATE_SIZE`` signals ``started`` and waits
    for ``release`` before it computes."""
    def gated(self, query, *args, _original=NetworkForecastService.answer,
              **kwargs):
        if any(size == GATE_SIZE for _src, _dst, size in query.transfers):
            started.set()
            assert release.wait(30.0), "test never released the gate"
        return _original(self, query, *args, **kwargs)

    NetworkForecastService.answer = gated
    return star_forecast_service(N_HOSTS)


def sandboxed_gate_service(started, release) -> NetworkForecastService:
    """Runs inside the shard process only: a what-if's first event, once it
    has written its link transiently, signals ``started`` and waits for
    ``release`` — the what-if parks inside its sandbox with the degraded
    value live."""
    def gated(self, _original=Simulation.touch_sharing):
        started.set()
        assert release.wait(30.0), "test never released the gate"
        _original(self)

    Simulation.touch_sharing = gated
    return star_forecast_service(N_HOSTS)


@contextmanager
def gated_gateway(gate=gated_star_service, **config):
    started, release = multiprocessing.Event(), multiprocessing.Event()
    # service= given, so the patching factory never runs in this process
    with running(partial(gate, started, release),
                 service=star_forecast_service(N_HOSTS), **config) as gw:
        try:
            yield gw, started, release
        finally:
            release.set()


GATED = [(HOSTS[0], HOSTS[1], GATE_SIZE)]


def in_background(gateway, *request):
    """Send one request from a thread; ``.result()`` is (status, body)."""
    pool = ThreadPoolExecutor(max_workers=1)

    def send():
        with Client(gateway) as client:
            return client.exchange(*request)

    future = pool.submit(send)
    pool.shutdown(wait=False)
    return future


def test_write_synced_while_a_read_is_in_flight_refuses_the_fill():
    halved = truth(GATED, bandwidth_factor=0.5)
    with gated_gateway() as (gw, started, release):
        link = gw.service.platform(STAR_PLATFORM).link(LINK)
        pending = in_background(gw, "POST", PREDICT, body_of(GATED))
        assert started.wait(30.0)
        link.bandwidth /= 2
        assert gw.sync_epoch()  # lands in the shard beside the parked read
        release.set()
        status, answer = pending.result(30.0)
        assert status == 200
        info = cache_info(gw)
        assert info["fills_refused"] == 1 and info["size"] == 0
        with Client(gw) as client:
            before = dispatched(gw)
            status, again = client.post(GATED)
            assert dispatched(gw) == before + 1, "a refused fill is a miss"
            assert json.loads(again) == halved
            assert client.post(GATED)[1] == again
            assert dispatched(gw) == before + 1


def test_write_not_yet_synced_retires_the_fill_it_overlapped():
    nominal, halved = truth(GATED), truth(GATED, bandwidth_factor=0.5)
    with gated_gateway() as (gw, started, release):
        link = gw.service.platform(STAR_PLATFORM).link(LINK)
        pending = in_background(gw, "POST", PREDICT, body_of(GATED))
        assert started.wait(30.0)
        link.bandwidth /= 2  # nobody has told the shard yet
        release.set()
        status, answer = pending.result(30.0)
        assert json.loads(answer) == nominal  # computed on the old state
        assert cache_info(gw)["size"] == 1  # ... and stored under its token
        with Client(gw) as client:
            before = dispatched(gw)
            _, fresh = client.post(GATED)
            assert dispatched(gw) == before + 1, "stale entry must not hit"
            assert json.loads(fresh) == halved


EVENTS = [{"time": 0.5, "link": LINK, "action": "degrade", "factor": 0.5}]


#: a what-if long enough for EVENTS to fire: its degrade of LINK is live
#: from t=0.5 s of its 4 s transfer
LONG_WHAT_IF = body_of([(HOSTS[0], HOSTS[1], 5e8)], events=EVENTS)


def test_a_parked_what_if_retires_nothing_and_an_overlapping_read_is_not_stored():
    with gated_gateway() as (gw, started, release):
        with Client(gw) as client:
            _, first = client.post(QUERIES[0])
            before = dispatched(gw)
            assert client.post(QUERIES[0])[1] == first
            assert dispatched(gw) == before
            # a what-if, parked inside the shard
            pending = in_background(gw, "POST", WHAT_IF,
                                    body_of(GATED, events=EVENTS))
            assert started.wait(30.0)
            # dispatching it retired nothing ...
            assert client.post(QUERIES[0])[1] == first
            assert dispatched(gw) == before + 1  # the what-if
            # ... and a read beside it was not stored
            _, second = client.post(QUERIES[1])
            assert cache_info(gw)["fills_refused"] == 1
            assert client.post(QUERIES[1])[1] == second
            assert dispatched(gw) == before + 3
            release.set()
            assert pending.result(30.0)[0] == 200
            # what-if done: the next read fills, the one after hits
            assert client.post(QUERIES[1])[1] == second
            assert dispatched(gw) == before + 4
            assert client.post(QUERIES[1])[1] == second
            assert client.post(QUERIES[0])[1] == first
            assert dispatched(gw) == before + 4
            assert cache_info(gw)["fills_refused"] == 2


def test_a_finished_what_if_leaves_front_end_and_shard_entries_live(gateway):
    with Client(gateway) as client:
        _, first = client.post(QUERIES[0])  # fills both tiers
        assert client.exchange("POST", WHAT_IF, LONG_WHAT_IF)[0] == 200
        before, shard = dispatched(gateway), shard_cache_info(gateway)
        assert client.post(QUERIES[0])[1] == first
        assert dispatched(gateway) == before  # the front end's entry
        # the GET spelling is a front-end miss and a hit of the shard's
        status, body = client.exchange("GET", get_target(QUERIES[0]))
        assert (status, json.loads(body)) == (200, json.loads(first))
        assert dispatched(gateway) == before + 1
        after = shard_cache_info(gateway)
        assert after["hits"] == shard["hits"] + 1
        assert after["misses"] == shard["misses"]


def test_a_read_beside_a_parked_what_if_gets_the_committed_answer_from_the_cache():
    nominal = truth(QUERIES[0])
    with gated_gateway(sandboxed_gate_service) as (gw, started, release):
        with Client(gw) as client:
            _, first = client.post(QUERIES[0])  # fills both tiers
            before = dispatched(gw)
            pending = in_background(gw, "POST", WHAT_IF, LONG_WHAT_IF)
            assert started.wait(30.0)  # LINK is degraded in the shard now
            assert client.post(QUERIES[0])[1] == first  # front end
            assert dispatched(gw) == before + 1
            shard = shard_cache_info(gw)
            status, body = client.exchange("GET", get_target(QUERIES[0]))
            assert (status, json.loads(body)) == (200, nominal)
            assert shard_cache_info(gw)["hits"] == shard["hits"] + 1
            release.set()
            assert pending.result(30.0)[0] == 200


def test_a_miss_beside_a_parked_what_if_is_stored_at_neither_tier():
    nominal = truth(QUERIES[1])
    with gated_gateway(sandboxed_gate_service) as (gw, started, release):
        with Client(gw) as client:
            _, first = client.post(QUERIES[0])
            before = dispatched(gw)
            pending = in_background(gw, "POST", WHAT_IF, LONG_WHAT_IF)
            assert started.wait(30.0)
            status, beside = client.post(QUERIES[1])  # crosses LINK
            # computed on the what-if's transient value: that is why
            # neither tier may keep it
            assert status == 200 and json.loads(beside) != nominal
            release.set()
            assert pending.result(30.0)[0] == 200
            shard = shard_cache_info(gw)
            _, after = client.post(QUERIES[1])
            assert json.loads(after) == nominal
            assert dispatched(gw) == before + 3  # the front end kept nothing
            assert shard_cache_info(gw)["misses"] == shard["misses"] + 1
            # the entry filled before the what-if stayed live throughout
            assert client.post(QUERIES[0])[1] == first
            assert dispatched(gw) == before + 3


def test_a_what_if_sent_while_a_read_is_in_flight_refuses_its_fill_at_both_tiers():
    """Neither tier can tell when, within the read's run, the what-if's
    sandbox was open: a what-if sent after the read's lookup refuses it."""
    nominal = truth(GATED)
    with gated_gateway() as (gw, started, release):
        pending = in_background(gw, "POST", PREDICT, body_of(GATED))
        assert started.wait(30.0)
        with Client(gw) as client:
            assert client.exchange("POST", WHAT_IF, LONG_WHAT_IF)[0] == 200
            release.set()
            status, answer = pending.result(30.0)
            assert (status, json.loads(answer)) == (200, nominal)
            info = cache_info(gw)
            assert info["fills_refused"] == 1 and info["size"] == 0
            before, shard = dispatched(gw), shard_cache_info(gw)
            assert json.loads(client.post(GATED)[1]) == nominal
            assert dispatched(gw) == before + 1
            assert shard_cache_info(gw)["misses"] == shard["misses"] + 1


@pytest.mark.parametrize("target", [
    f"http://gateway{WHAT_IF}",                 # absolute-form
    f"//gateway{WHAT_IF}",                      # network-path reference
    WHAT_IF.replace("what_if", "what%5Fif"),  # escaped
])
def test_a_what_if_is_counted_however_its_target_is_spelled(gateway, target):
    handle = gateway.shards[0]
    with Client(gateway) as client:
        _, first = client.post(QUERIES[0])
        before, sent = dispatched(gateway), handle.whatifs_sent
        assert client.post(QUERIES[0])[1] == first
        assert dispatched(gateway) == before
        assert client.post(QUERIES[0], path=target, events=EVENTS)[0] == 200
        assert handle.whatifs_sent == sent + 1, "what-if not counted"
        assert handle.whatifs_done == handle.whatifs_sent
        # finished, it retired nothing
        assert client.post(QUERIES[0])[1] == first
        assert dispatched(gateway) == before + 1


def test_timed_out_requests_are_not_stored_and_a_timed_out_what_if_still_counts():
    with gated_gateway(request_timeout=0.2) as (gw, started, release):
        with Client(gw) as client:
            status, body = client.post(GATED, path=WHAT_IF, events=EVENTS)
            assert status == 504
            assert json.loads(body)["error"] == "GatewayTimeout"
            handle = gw.shards[0]
            # the waiter gave up; the shard has not: reads stay unstored
            assert handle.whatifs_sent - handle.whatifs_done == 1
            client.post(QUERIES[0])
            assert cache_info(gw)["size"] == 0
            release.set()
            deadline = time.monotonic() + 30.0
            while handle.whatifs_done != handle.whatifs_sent:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            before = dispatched(gw)
            client.post(QUERIES[0])
            client.post(QUERIES[0])
            assert dispatched(gw) == before + 1
            assert cache_info(gw)["size"] == 1


# -- what is never stored ------------------------------------------------------------


def test_only_plain_predict_200s_are_stored(gateway):
    hypothesis = ";".join(f"{s},{d},{z!r}" for s, d, z in QUERIES[1])
    never = [
        ("GET", get_target(QUERIES[0], extra="&horizon=2"), None, 200),
        ("POST", PREDICT, body_of(QUERIES[0], horizon=2), 200),
        ("POST", WHAT_IF, body_of(QUERIES[0], events=EVENTS), 200),
        ("GET", f"/pilgrim/select_fastest/{STAR_PLATFORM}"
                f"?hypothesis=a:{hypothesis}", None, 200),
        ("GET", "/pilgrim/platforms", None, 200),
        ("POST", PREDICT, b"{not json", 400),
        ("GET", PREDICT, None, 400),  # no transfer= at all
        ("GET", "/pilgrim/predict_transfers/no-such-platform"
                f"?transfer={HOSTS[0]},{HOSTS[1]},1e6", None, 404),
    ]
    with Client(gateway) as client:
        for method, target, body, expected in never:
            size, before = cache_info(gateway)["size"], dispatched(gateway)
            uncacheable = cache_info(gateway)["uncacheable"]
            for _ in range(2):
                status, _body = client.exchange(method, target, body)
                assert status == expected, (method, target)
            assert dispatched(gateway) == before + 2, (method, target)
            assert cache_info(gateway)["size"] == size, (method, target)
            assert cache_info(gateway)["uncacheable"] == uncacheable + 2
        # the stats document is the front end's own and is never stored
        size = cache_info(gateway)["size"]
        first = json.loads(client.exchange("GET", "/pilgrim/stats")[1])
        second = json.loads(client.exchange("GET", "/pilgrim/stats")[1])
        assert (second["gateway"]["routes"]["stats"]["count"]
                == first["gateway"]["routes"]["stats"]["count"] + 1)
        assert cache_info(gateway)["size"] == size


def test_surrogate_tier_armed_stores_nothing():
    with running(surrogate_doc=SurrogateModel().to_json()) as gw:
        with Client(gw) as client:
            before = dispatched(gw)
            answers = {client.post(QUERIES[0])[1] for _ in range(3)}
        assert dispatched(gw) == before + 3
        assert cache_info(gw)["size"] == 0
        assert [json.loads(a) for a in answers] == [truth(QUERIES[0])]


def test_cache_size_zero_sends_everything_to_the_shard(gateway):
    with running(cache_size=0) as gw:
        with Client(gw) as client, Client(gateway) as cached:
            for transfers in QUERIES:
                before = dispatched(gw)
                answers = [client.post(transfers)[1] for _ in range(3)]
                assert dispatched(gw) == before + 3
                assert set(answers) == {cached.post(transfers)[1]}
        assert cache_info(gw)["size"] == 0
        shard = gw.shards[0].request_stats().result(10.0)[1]
        assert shard["serving"]["cache"]["maxsize"] == 0


def test_small_cache_evicts_least_recently_used():
    with running(cache_size=2) as gw:
        with Client(gw) as client:
            for transfers in QUERIES:  # three fills into two slots
                client.post(transfers)
            info = cache_info(gw)
            assert info["size"] == 2 and info["evictions"] == 1
            before = dispatched(gw)
            client.post(QUERIES[2])
            client.post(QUERIES[1])
            assert dispatched(gw) == before  # the two youngest stayed
            client.post(QUERIES[0])
            assert dispatched(gw) == before + 1  # the oldest was evicted


# -- shards ----------------------------------------------------------------------------


def test_what_if_on_one_shard_leaves_the_other_shards_entries_live():
    with running(star_fleet_factory(4, N_HOSTS), shards=2) as gw:
        names = gw.service.platform_names()
        owner = {name: gw.ring.node(name) for name in names}
        here = names[0]
        there = next(n for n in names if owner[n] != owner[here])

        def transfers_on(platform):
            return [(f"{platform}-1", f"{platform}-2", 5e7)]

        def path(kind, platform):
            return f"/pilgrim/{kind}/{platform}"

        truths = {name: truth(transfers_on(name), name)
                  for name in (here, there)}
        with Client(gw) as client:
            for name in (here, there):
                status, body = client.post(transfers_on(name),
                                           path=path("predict_transfers",
                                                     name))
                assert json.loads(body) == truths[name]
            before = gw.stats()["shard_dispatched"]
            events = [{"time": 0.5, "link": f"{here}-1-link",
                       "action": "degrade", "factor": 0.5}]
            assert client.post(transfers_on(here), path=path("what_if", here),
                               events=events)[0] == 200
            for name in (here, there):
                client.post(transfers_on(name),
                            path=path("predict_transfers", name))
            after = gw.stats()["shard_dispatched"]
        # the what-if's shard answered the what-if only: both entries
        # were still live
        assert after[owner[here]] == before[owner[here]] + 1
        assert after[owner[there]] == before[owner[there]]


def test_dead_shard_still_answers_its_hits_and_503s_its_misses():
    with running() as gw:
        with Client(gw) as client:
            _, filled = client.post(QUERIES[0])
            handle = gw.shards[0]
            handle.process.kill()
            deadline = time.monotonic() + 30.0
            while handle.alive:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            status, hit = client.post(QUERIES[0])
            assert (status, hit) == (200, filled)
            status, body = client.post(QUERIES[1])
            assert status == 503
            assert json.loads(body) == {
                "error": "ServiceUnavailable", "status": 503,
                "message": "shard 0 is down"}
            stats = json.loads(client.exchange("GET", "/pilgrim/stats")[1])
            assert stats["shards"] == [{"shard": 0, "alive": False}]
            assert stats["gateway"]["shard_alive"] == [False]


# -- concurrency ---------------------------------------------------------------------


def test_eight_thread_hammer_beside_writes_matches_serial_ground_truth():
    """Seven readers and one writer that also reads: every answer is one of
    the two serial truths, and the writer — who knows which value it wrote
    last — always reads that value's truth."""
    rounds = 12
    truths = {factor: [truth(q, bandwidth_factor=factor) for q in QUERIES]
              for factor in (1.0, 0.5)}
    with running(shards=2) as gw:
        link = gw.service.platform(STAR_PLATFORM).link(LINK)
        nominal = link.bandwidth
        stop = threading.Event()

        def reader(worker: int) -> list[tuple[int, object]]:
            seen = []
            with Client(gw) as client:
                while not stop.is_set():
                    for qi, transfers in enumerate(QUERIES):
                        if (worker + qi) % 2:
                            status, body = client.post(transfers)
                        else:
                            status, body = client.exchange(
                                "GET", get_target(transfers))
                        assert status == 200
                        seen.append((qi, json.loads(body)))
            return seen

        def writer() -> None:
            try:
                with Client(gw) as client:
                    for round_no in range(rounds):
                        factor = 0.5 if round_no % 2 == 0 else 1.0
                        link.bandwidth = nominal * factor
                        for qi, transfers in enumerate(QUERIES):
                            status, body = client.post(transfers)
                            assert status == 200
                            assert json.loads(body) == truths[factor][qi], (
                                f"stale answer after write {round_no}")
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave connections, reader, writer
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                readers = [pool.submit(reader, w) for w in range(7)]
                pool.submit(writer).result(120.0)
                sessions = [r.result(120.0) for r in readers]
        finally:
            sys.setswitchinterval(interval)
        for seen in sessions:
            assert seen
            for qi, answer in seen:
                assert answer in (truths[1.0][qi], truths[0.5][qi])
        info = cache_info(gw)
        assert info["hits"] > 0 and info["misses"] >= rounds * len(QUERIES)
        assert gw.stats()["admission"]["in_flight"] == 0


class CountingPipe:
    """A shard pipe that checks, as each what-if's bytes go down it, that
    the gateway has already counted that what-if (sends are serialized by
    the handle's send lock)."""

    def __init__(self, handle) -> None:
        self.handle, self.conn = handle, handle._conn
        self.whatifs = self.uncounted = 0

    def send(self, message) -> None:
        if message[0] == "req" and "/what_if/" in message[3]:
            self.whatifs += 1
            if self.handle.whatifs_sent < self.whatifs:
                self.uncounted += 1
        self.conn.send(message)

    def __getattr__(self, name):
        return getattr(self.conn, name)


def yield_inside_the_lru(frame, event, arg):
    """A thread trace that gives the GIL away between any two lines of
    ``BoundedLRU``: an interleaving its callers' lock has to rule out then
    happens on most calls, not on one in a thousand."""
    if frame.f_code.co_filename.endswith(os.path.join("_util", "lru.py")):
        return _yield_each_line
    return None


def _yield_each_line(frame, event, arg):
    if event == "line":
        time.sleep(0)
    return _yield_each_line


def test_connection_threads_hammering_hot_keys_beside_what_ifs():
    """Eight connections, three hot keys in a two-entry cache (every fill
    evicts) and what-ifs interleaved on a link no read crosses: no 500,
    every read its serial truth, every what-if counted before it is sent,
    and the counters add up once the load drains."""
    connections, requests, whatif_every = 8, 100, 10
    truths = [truth(q) for q in QUERIES]
    # host 3 and host 7 are on no query's route
    whatif = body_of([(HOSTS[2], HOSTS[6], 5e7)], events=[
        {"time": 0.5, "link": f"{HOSTS[6]}-link", "action": "degrade",
         "factor": 0.5}])
    with running(cache_size=2) as gw:
        handle = gw.shards[0]
        pipe = handle._conn = CountingPipe(handle)

        def client(worker: int) -> tuple[int, int]:
            rng = random.Random(worker)
            reads = whatifs = 0
            with Client(gw) as conn:
                for i in range(requests):
                    if (i + 3 * worker) % whatif_every == 0:
                        status, body = conn.exchange("POST", WHAT_IF, whatif)
                        assert status == 200, body
                        whatifs += 1
                        continue
                    qi = rng.randrange(len(QUERIES))
                    status, body = conn.post(QUERIES[qi])
                    assert status == 200, body
                    assert json.loads(body) == truths[qi]
                    reads += 1
            return reads, whatifs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threading.settrace(yield_inside_the_lru)
        try:
            with ThreadPoolExecutor(max_workers=connections) as pool:
                done = list(pool.map(client, range(connections)))
        finally:
            threading.settrace(None)
            sys.setswitchinterval(interval)
        reads, whatifs = map(sum, zip(*done))
        assert pipe.whatifs == whatifs and pipe.uncounted == 0
        assert handle.whatifs_sent == handle.whatifs_done == whatifs
        with Client(gw) as conn:
            stats = json.loads(conn.exchange("GET", "/pilgrim/stats")[1])
        top, cache = stats["gateway"], stats["shards"][0]["serving"]["cache"]
        # every read is a front hit or one lookup of the shard's cache,
        # whose hits include the front hits
        assert cache["front_hits"] == top["response_cache"]["hits"]
        assert cache["hits"] + cache["misses"] == reads
        assert top["shard_dispatched"] == [reads - cache["front_hits"]
                                           + whatifs]
        assert top["responses"] == {"2xx": reads + whatifs}
        assert top["admission"]["in_flight"] == 0
