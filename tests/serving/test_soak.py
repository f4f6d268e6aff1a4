"""A served process's memory plateaus: every cache traffic fills has a bound.

An in-process :class:`~repro.core.framework.Pilgrim` serves a fresh
``g5k_test`` (its route store cut to a few dozen routes) and the metrology
demo's star, with the answer cache on and small.  Each round of traffic
asks GET and POST predicts over host pairs no earlier round asked, a
what-if, ``?horizon=h`` on both platforms and a repeat that hits the cache;
it writes a link and steps the metrology loop.  After a warm-up that fills
every bounded structure, the memory tracemalloc counts and the objects the
collector tracks must stop growing: round ``2k`` holds what round ``k``
held, within a slack far below what an unbounded cache adds over ``k``
rounds of never-repeated pairs.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc
import urllib.parse

from repro.core.framework import Pilgrim
from repro.core.rest.router import Request
from repro.g5k.converter import to_simgrid_platform
from repro.g5k.sites import grid5000_dev_reference
from repro.metrology.demo import DEMO_PLATFORM, StarMetrologyDemo
from repro.metrology.loop import RecalibrationLoop
from repro.scenarios.spec import LinkEvent
from repro.simgrid.platform import RouteCache

PLATFORM = "g5k_test"
#: the bounds the soak passes many times over
ROUTE_STORE, ANSWER_CACHE = 32, 8
#: rounds between the two measurements (and of warm-up before the first)
K = 12
#: growth round ``2K`` may show over round ``K``.  The RRD archives fill
#: their fixed rows (a float per slot, 360 steps per fine row) and the
#: horizon windows their 32 values, about 4 KiB and no tracked object over
#: ``K`` rounds; an AS keeping each entry it decoded grew 54 KiB and 235
#: objects, and an unbounded route store or answer cache grows more
SLACK_BYTES, SLACK_OBJECTS = 12 * 1024, 40


def intra_site_pairs(platform):
    """Every ordered pair of hosts of one site, the sites interleaved: each
    is a route a site AS declares, and no pair comes twice."""
    sites: dict[str, list[str]] = {}
    for host in platform.hosts():
        sites.setdefault(host.name.split(".")[1], []).append(host.name)
    rows = [itertools.permutations(hosts, 2) for hosts in sites.values()]
    return itertools.chain.from_iterable(zip(*rows))


def footprint() -> tuple[int, int]:
    # the stdlib keeps the last 128 request targets it split: emptied
    # here, or the first 128 distinct targets would read as growth
    urllib.parse.urlsplit.cache_clear()
    gc.collect()
    return tracemalloc.get_traced_memory()[0], len(gc.get_objects())


def test_memory_plateaus_under_mixed_traffic():
    platform = to_simgrid_platform(grid5000_dev_reference(), PLATFORM)
    platform._route_cache = RouteCache(maxsize=ROUTE_STORE)
    demo = StarMetrologyDemo(n_hosts=2, period=15.0, seed=5)
    pilgrim = Pilgrim(platforms={PLATFORM: platform,
                                 DEMO_PLATFORM: demo.platform})
    # the loop feeds the served platform's horizon, so ?horizon=h on the
    # demo platform projects from what it committed
    demo.loop = RecalibrationLoop(demo.feed,
                                  pilgrim.forecast.horizon_state(DEMO_PLATFORM))
    router = pilgrim.build_router()
    pairs = intra_site_pairs(platform)
    written = platform.route(*next(pairs))[0].link
    star_link = demo.platform.link(demo.degraded_link)
    star = [h.name for h in demo.platform.hosts()]
    predict = f"/pilgrim/predict_transfers/{PLATFORM}"

    def ask(method, target, body=None):
        status, payload = router.dispatch(Request.from_target(method, target,
                                                              body))
        assert status == 200, payload
        return payload

    def transfers(n, size):
        return [[src, dst, size] for src, dst in itertools.islice(pairs, n)]

    def one_round(i):
        query = "&".join(f"transfer={s},{d},{z:.0f}" for s, d, z in transfers(3, 5e7))
        ask("GET", f"{predict}?{query}")
        ask("GET", f"{predict}?{query}")  # a hit
        ask("POST", predict, {"transfers": transfers(6, 2e8),
                              "ongoing": transfers(2, 1e8)})
        ask("POST", predict, {"transfers": transfers(4, 1e9), "model": "CM02"})
        event = LinkEvent(time=0.5, link=written.name, action="degrade",
                          factor=0.5)
        ask("POST", f"/pilgrim/what_if/{PLATFORM}",
            {"transfers": transfers(3, 5e8), "events": [event.to_json()]})
        ask("GET", f"{predict}?transfer={','.join(map(str, transfers(1, 3e8)[0]))}"
                   f"&horizon={1 + i % 3}")
        ask("GET", f"/pilgrim/predict_transfers/{DEMO_PLATFORM}"
                   f"?transfer={star[0]},{star[1]},1e8&horizon=2")
        star_link.latency = 1e-4 * (1 + i % 2)
        demo.step()

    pilgrim.enable_serving(cache_size=ANSWER_CACHE)
    tracemalloc.start()
    try:
        for i in range(K):
            one_round(i)
        bytes_k, objects_k = footprint()
        for i in range(K, 2 * K):
            one_round(i)
        bytes_2k, objects_2k = footprint()
        answers = pilgrim.serving.stats()["cache"]
    finally:
        tracemalloc.stop()
        pilgrim.disable_serving()
    grew = bytes_2k - bytes_k, objects_2k - objects_k
    assert grew[0] <= SLACK_BYTES and grew[1] <= SLACK_OBJECTS, (
        f"rounds {K}..{2 * K} grew {grew[0]} B and {grew[1]} objects")
    # both bounds were passed, many times
    assert platform.route_cache_info()["evictions"] > 10 * ROUTE_STORE
    assert answers["evictions"] > 2 * ANSWER_CACHE, answers
