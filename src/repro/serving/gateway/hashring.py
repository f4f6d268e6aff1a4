"""Consistent-hash ring for shard routing.

The gateway pins every routing key (a platform name, or the request path
for platform-less routes) to one shard so each shard's warm state — its
``ForecastCache``, the platform route LRU, the solver arena — specializes
on the traffic it actually serves.  A consistent ring rather than
``hash(key) % N`` so that resizing the shard fleet remaps only ``~1/N`` of
the keyspace: the other shards keep their hot caches.

Hashing is :func:`hashlib.sha1` (stable across processes and runs —
``hash()`` is salted per interpreter and would route every restart
differently).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence


def _hash64(data: str) -> int:
    """First 8 bytes of sha1, as an int — stable, well-mixed, cheap."""
    return int.from_bytes(
        hashlib.sha1(data.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """Maps string keys to member nodes via consistent hashing.

    ``replicas`` virtual points per node smooth the load split (with 64
    vnodes the max/min key-share imbalance across 4 nodes stays within a
    few tens of percent, enough for cache affinity — shard *occupancy*
    balancing is the admission controller's job, not the ring's).
    """

    def __init__(self, nodes: Iterable[object] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._nodes: list[object] = []
        self._points: list[int] = []      # sorted vnode hashes
        self._owners: list[object] = []   # node at each point (parallel)
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> Sequence[object]:
        return tuple(self._nodes)

    def add(self, node: object) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.append(node)
        for replica in range(self.replicas):
            point = _hash64(f"{node}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: object) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not on the ring")
        self._nodes.remove(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != node]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def node(self, key: str) -> object:
        """The shard owning ``key`` (clockwise successor on the ring)."""
        if not self._nodes:
            raise LookupError("hash ring is empty")
        index = bisect.bisect(self._points, _hash64(key))
        if index == len(self._points):  # wrap past the last point
            index = 0
        return self._owners[index]
