#!/usr/bin/env python
"""Smoke-run every registered sharing model so model plugins can't rot.

The model registry is the CLI's public surface (``repro models list``,
``--model`` on predict/scenarios/serve): every registered model must build
from its factory defaults, drive a small simulation on a contended star,
a dumbbell, a two-RTT-class mix of local and cross-bottleneck flows and
a NIC that a second flow shares for a while, and produce identical answers
in both solver modes — incremental and ``full_resolve``.
This runner — the model-registry sibling of
``tools/check_scenario_smoke.py`` — is what keeps a model that only works
with full rebuilds (or whose time-varying weight updates drift between
solver modes) out of the registry.  Used standalone::

    PYTHONPATH=src python tools/check_model_smoke.py

and wired into tier-1 through ``tests/simgrid/test_model_smoke.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Both solver modes must agree on every duration to this relative tolerance.
REL_TOL = 1e-9

#: (name, builder) — tiny but contended: the star forces an incast
#: bottleneck, the dumbbell a shared middle link plus cross flows.
def _star():
    from repro.simgrid.builder import add_star_cluster
    from repro.simgrid.platform import Platform

    platform = Platform("smoke-star")
    add_star_cluster(platform, "s", 6, host_bandwidth=1.25e8,
                     host_latency=1e-4, routing="Dijkstra")
    transfers = [(f"s-{i}", "s-6", 3e7) for i in range(1, 6)]
    return platform, transfers


def _dumbbell():
    from repro.simgrid.builder import build_dumbbell

    platform = build_dumbbell(n_left=3, n_right=3,
                              bottleneck_bandwidth=2.5e8,
                              bottleneck_latency=5e-4,
                              edge_bandwidth=1.25e8, edge_latency=1e-4)
    transfers = [
        ("left-1", "right-1", 5e7),
        ("left-2", "right-2", 5e7),
        ("left-3", "right-3", 2e7),
        ("right-1", "left-1", 4e7),
    ]
    return platform, transfers


def _two_rtt():
    """Local pairs (RTT 0.4 ms) beside pairs across the bottleneck (1.4 ms),
    sizes from mid-ramp to steady: a time-varying model runs two classes of
    round instants at once, and flows leave them at different rounds."""
    from repro.simgrid.builder import build_dumbbell

    platform = build_dumbbell(n_left=4, n_right=4,
                              bottleneck_bandwidth=2.5e8,
                              bottleneck_latency=5e-4,
                              edge_bandwidth=1.25e8, edge_latency=1e-4)
    transfers = [
        ("left-1", "right-1", 4e7),
        ("left-2", "right-2", 1e6),
        ("left-3", "right-3", 6e6),
        ("left-1", "left-2", 3e7),
        ("left-3", "left-4", 2e6),
        ("right-4", "right-1", 8e6),
    ]
    return platform, transfers


def _shared_nic():
    """One NIC, two flows of different sizes and start-up latencies: the
    local flow has ``left-1``'s uplink to itself until the cross flow ends
    its longer latency phase, shares it while that one lasts, and has it
    back afterwards — the constraint is private, shared and private again
    within one run, beside a flow that never shares anything."""
    from repro.simgrid.builder import build_dumbbell

    platform = build_dumbbell(n_left=2, n_right=3,
                              bottleneck_bandwidth=2.5e8,
                              bottleneck_latency=5e-4,
                              edge_bandwidth=1.25e8, edge_latency=1e-4)
    transfers = [
        ("left-1", "left-2", 3e7),
        ("left-1", "right-1", 8e6),
        ("right-2", "right-3", 2e7),
    ]
    return platform, transfers


TOPOLOGIES = (("star", _star), ("dumbbell", _dumbbell),
              ("two-rtt", _two_rtt), ("shared-nic", _shared_nic))

#: Solver mode matrix: (label, full_resolve).
MODES = (
    ("incremental", False),
    ("full_resolve", True),
)


def smoke_model(entry) -> float:
    """Run one registry entry on every topology in both solver modes.

    Returns the summed makespan across topologies (a fingerprint the
    caller can sanity-check is positive); raises ``AssertionError`` on any
    cross-mode disagreement beyond :data:`REL_TOL`.
    """
    from repro.simgrid.engine import Simulation

    total_makespan = 0.0
    for topo_name, build in TOPOLOGIES:
        reference = None
        for mode, full_resolve in MODES:
            platform, transfers = build()
            sim = Simulation(platform, entry.build(),
                             full_resolve=full_resolve)
            comms = sim.simulate_transfers(transfers)
            durations = [c.duration for c in comms]
            if any(d <= 0 for d in durations):
                raise AssertionError(
                    f"{entry.name}/{topo_name}/{mode}: non-positive "
                    f"duration in {durations}")
            if reference is None:
                reference = durations
                total_makespan += max(durations)
                continue
            for ref, got in zip(reference, durations):
                drift = abs(ref - got) / max(ref, got)
                if drift > REL_TOL:
                    raise AssertionError(
                        f"{entry.name}/{topo_name}: solver modes disagree "
                        f"(incremental {ref} vs {mode} {got}, "
                        f"rel {drift:.2e})")
    return total_makespan


def main(argv: list[str] | None = None) -> int:
    from repro.simgrid.models import registered_models

    entries = registered_models()
    if not entries:
        print("no sharing models registered", file=sys.stderr)
        return 2
    print(f"smoke-running {len(entries)} sharing models "
          f"({len(TOPOLOGIES)} topologies x {len(MODES)} solver modes, "
          f"{REL_TOL} agreement)")
    failures = 0
    for entry in entries:
        t0 = time.perf_counter()
        try:
            makespan = smoke_model(entry)
        except Exception as exc:  # noqa: BLE001 - smoke boundary
            failures += 1
            print(f"  FAIL {entry.name}: {type(exc).__name__}: {exc}")
            continue
        print(f"  ok   {entry.name}: summed makespan {makespan:.3f}s "
              f"({(time.perf_counter() - t0) * 1e3:.0f} ms)")
    if failures:
        print(f"{failures}/{len(entries)} models failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
