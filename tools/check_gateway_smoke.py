#!/usr/bin/env python
"""Smoke-check the sharded gateway end to end so it can't rot.

The gateway sibling of ``tools/check_serving_smoke.py``: boot a
:class:`ShardedGateway` with two shard processes over the synthetic star
platform, round-trip a ``POST /pilgrim/predict_transfers`` through the
asyncio front end, cross-check the answer against a direct simulation,
assert the aggregated ``GET /pilgrim/stats`` schema (gateway counters plus
one entry per live shard), run the response cache's hit / invalidate cycle
(a repeated POST is a front-end hit that never reaches a shard; a parent
link write changes the very next answer), and shut everything down.  Used
standalone::

    PYTHONPATH=src python tools/check_gateway_smoke.py

and wired into tier-1 through ``tests/serving/gateway/test_gateway_smoke.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Hosts in the synthetic smoke platform.
N_HOSTS = 8
#: Shard processes behind the gateway.
N_SHARDS = 2


def main(argv: list[str] | None = None) -> int:
    from repro.core.rest.client import RestClient
    from repro.serving.factories import (
        STAR_PLATFORM,
        star_factory,
        star_forecast_service,
    )
    from repro.serving.gateway import GatewayConfig, ShardedGateway

    truth_service = star_forecast_service(N_HOSTS)
    hosts = [h.name for h in truth_service.platform(STAR_PLATFORM).hosts()]
    transfers = [
        (hosts[i], hosts[(i + 1) % len(hosts)], 5e7 * (i + 1))
        for i in range(4)
    ]
    direct = [f.to_json() for f in
              truth_service.predict_transfers(STAR_PLATFORM, transfers)]

    failures: list[str] = []
    config = GatewayConfig(shards=N_SHARDS, window=0.0)
    with ShardedGateway(star_factory(N_HOSTS), config) as gateway:
        with RestClient(gateway.url) as client:
            answer = client.post_predict_transfers(STAR_PLATFORM, transfers)
            if answer != direct:
                failures.append("gateway answer differs from direct "
                                "simulation")

            stats = client.stats()
            if set(stats) != {"gateway", "shards"}:
                failures.append(f"stats top-level schema wrong: "
                                f"{sorted(stats)}")
            top = stats.get("gateway", {})
            for key in ("shards", "admission", "epoch", "shard_occupancy",
                        "shard_dispatched", "shard_alive", "response_cache",
                        "routes", "responses", "connections"):
                if key not in top:
                    failures.append(f"gateway stats missing {key!r}")
            if top.get("shards") != N_SHARDS:
                failures.append(f"gateway reports {top.get('shards')} "
                                f"shards, expected {N_SHARDS}")
            if top.get("admission", {}).get("shed", 0) != 0:
                failures.append("smoke load must not shed")
            shards = stats.get("shards", [])
            if len(shards) != N_SHARDS:
                failures.append(f"{len(shards)} shard stat entries, "
                                f"expected {N_SHARDS}")
            for shard_stats in shards:
                if not shard_stats.get("alive"):
                    failures.append(f"shard not alive: {shard_stats}")
                for key in ("shard", "pid", "epoch", "requests", "serving"):
                    if key not in shard_stats:
                        failures.append(f"shard stats missing {key!r}")
            pids = {s.get("pid") for s in shards}
            if len(pids) != N_SHARDS:
                failures.append(f"shards share a process: pids {pids}")

            # hit: the repeated POST is answered by the front end
            before = client.stats()["gateway"]
            if client.post_predict_transfers(STAR_PLATFORM,
                                             transfers) != direct:
                failures.append("repeated POST changed the answer")
            after = client.stats()["gateway"]
            if (after["response_cache"]["hits"]
                    != before["response_cache"]["hits"] + 1):
                failures.append("repeated POST was not a response-cache hit")
            if after["shard_dispatched"] != before["shard_dispatched"]:
                failures.append("a response-cache hit reached a shard")
            # invalidate: a parent link write shows in the very next answer
            link = gateway.service.platform(STAR_PLATFORM).link(
                f"{hosts[0]}-link")
            link.bandwidth /= 2
            if client.post_predict_transfers(STAR_PLATFORM,
                                             transfers) == direct:
                failures.append("answer did not change after a link write")
            synced = client.stats()["gateway"]
            if synced["epoch"]["syncs"] != after["epoch"]["syncs"] + 1:
                failures.append("link write was not synced exactly once")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"gateway smoke OK: {N_SHARDS} shards over star({N_HOSTS}), "
          f"POST round-trip bit-identical, /stats schema consistent, "
          f"response cache hit + invalidate cycle")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
