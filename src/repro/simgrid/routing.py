"""Routing analysis utilities: validation and flat-vs-hierarchical tooling.

The paper stresses (§IV-C2) that SimGrid's hierarchical Autonomous Systems
made it feasible to simulate the whole of Grid'5000, where the earlier *flat*
description required a quadratic route table too large to hold in memory.
This module provides:

- :func:`validate_all_routes` — checks every host pair resolves to a sane
  route (used by converter tests),
- :func:`flatten_platform` — materialises the flat equivalent of a
  hierarchical platform (one Full AS, every pair declared), the object whose
  cost the routing-scalability bench measures,
- :func:`route_signature` — hashable route summary for comparisons.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.simgrid.platform import (
    Host,
    LinkUse,
    NoRouteError,
    Platform,
    RouteCache,
)

__all__ = [
    "RouteCache",
    "flatten_platform",
    "route_cache_stats",
    "route_signature",
    "route_table_bytes",
    "validate_all_routes",
]


def route_cache_stats(platform: Platform) -> dict:
    """Convenience accessor for a platform's LRU route cache counters."""
    return platform.route_cache_info()


def route_signature(route: Iterable[LinkUse]) -> tuple[tuple[str, str], ...]:
    """Hashable summary of a route: ``((link name, direction), …)``."""
    return tuple((use.link.name, use.direction.value) for use in route)


def validate_all_routes(
    platform: Platform,
    hosts: Optional[list[str]] = None,
    sample: Optional[int] = None,
    seed: int = 0,
) -> dict:
    """Resolve routes for (a sample of) all host pairs; raise on failure.

    Returns summary statistics: number of pairs checked, min/max hop count,
    and how many pairs are asymmetric (forward route is not the mirror of the
    reverse route — allowed, but worth surfacing).
    """
    names = hosts if hosts is not None else [h.name for h in platform.hosts()]
    pairs = [(a, b) for a, b in itertools.permutations(names, 2)]
    if sample is not None and sample < len(pairs):
        from repro._util.rng import rng_for

        rng = rng_for(seed, "validate_all_routes")
        idx = rng.choice(len(pairs), size=sample, replace=False)
        pairs = [pairs[i] for i in idx]
    hops_min, hops_max = float("inf"), 0
    asymmetric = 0
    for a, b in pairs:
        route = platform.route(a, b)
        if not route:
            raise NoRouteError(f"empty route between distinct hosts {a!r} and {b!r}")
        hops_min = min(hops_min, len(route))
        hops_max = max(hops_max, len(route))
        back = platform.route(b, a)
        mirrored = tuple(use.reversed() for use in reversed(route))
        if tuple(back) != mirrored:
            asymmetric += 1
    return {
        "pairs": len(pairs),
        "min_hops": int(hops_min) if pairs else 0,
        "max_hops": int(hops_max),
        "asymmetric_pairs": asymmetric,
    }


def flatten_platform(platform: Platform, name: Optional[str] = None) -> Platform:
    """Build the *flat* equivalent of ``platform``: a single Full-routing AS
    containing every host and an explicit route for every ordered host pair.

    This reproduces the pre-AS situation the paper describes ("a huge routing
    table which would consume a lot of memory, to the point that it was
    impossible to wholly simulate Grid'5000").  Links are shared with the
    original platform objects, so simulations on the flat platform produce
    identical timings — only the routing-table cost differs.
    """
    flat = Platform(name or f"{platform.name}-flat", routing="Full")
    hosts = platform.hosts()
    for host in hosts:
        clone = Host(host.name, speed=host.speed, cores=host.cores,
                     properties=host.properties)
        flat.root._register(clone)
    for a, b in itertools.permutations([h.name for h in hosts], 2):
        flat.root.add_route(a, b, platform.route(a, b), symmetrical=False)
    return flat


def route_table_bytes(platform: Platform) -> int:
    """Rough memory footprint of all declared route entries, in bytes.

    Counts one pointer-sized slot per link use plus fixed per-entry overhead;
    a deliberately simple estimator for the scalability bench (relative
    comparison flat vs hierarchical is what matters).
    """
    import sys

    total = 0
    for as_ in (platform.root, *platform.root.descendants()):
        for _, entry in as_.declared_routes():
            total += sys.getsizeof(entry.links)
            total += 8 * len(entry.links) + 64
    return total
