"""Every registered sharing model smoke-runs in both solver modes.

The model registry is the CLI's public surface (``repro models list``,
``--model`` on predict/scenarios/serve): every registered model must build
from its factory defaults, drive a small simulation on a contended star, a
dumbbell, a two-RTT-class mix of local and cross-bottleneck flows and a NIC
that a second flow shares for a while, and answer identically incrementally
and with ``full_resolve`` — which keeps a model that only works with full
rebuilds (or whose time-varying weight updates drift between solver modes)
out of the registry.
"""

from __future__ import annotations

import pytest

from repro.simgrid.builder import add_star_cluster, build_dumbbell
from repro.simgrid.engine import Simulation
from repro.simgrid.models import registered_models
from repro.simgrid.platform import Platform


def _star():
    """An incast: five senders into one receiver's NIC."""
    platform = Platform("smoke-star")
    add_star_cluster(platform, "s", 6, host_bandwidth=1.25e8,
                     host_latency=1e-4, routing="Dijkstra")
    return platform, [(f"s-{i}", "s-6", 3e7) for i in range(1, 6)]


def _dumbbell(n_left=3, n_right=3):
    return build_dumbbell(n_left=n_left, n_right=n_right,
                          bottleneck_bandwidth=2.5e8, bottleneck_latency=5e-4,
                          edge_bandwidth=1.25e8, edge_latency=1e-4)


def _cross():
    """A shared middle link plus a reverse cross flow."""
    return _dumbbell(), [
        ("left-1", "right-1", 5e7),
        ("left-2", "right-2", 5e7),
        ("left-3", "right-3", 2e7),
        ("right-1", "left-1", 4e7),
    ]


def _two_rtt():
    """Local pairs (RTT 0.4 ms) beside pairs across the bottleneck (1.4 ms),
    sizes from mid-ramp to steady: a time-varying model runs two classes of
    round instants at once, and flows leave them at different rounds."""
    return _dumbbell(4, 4), [
        ("left-1", "right-1", 4e7),
        ("left-2", "right-2", 1e6),
        ("left-3", "right-3", 6e6),
        ("left-1", "left-2", 3e7),
        ("left-3", "left-4", 2e6),
        ("right-4", "right-1", 8e6),
    ]


def _shared_nic():
    """One NIC, two flows of different sizes and start-up latencies: the
    local flow has ``left-1``'s uplink to itself until the cross flow ends
    its longer latency phase, shares it while that one lasts, and has it
    back afterwards — the constraint is private, shared and private again
    within one run, beside a flow that never shares anything."""
    return _dumbbell(2, 3), [
        ("left-1", "left-2", 3e7),
        ("left-1", "right-1", 8e6),
        ("right-2", "right-3", 2e7),
    ]


TOPOLOGIES = {"star": _star, "dumbbell": _cross, "two-rtt": _two_rtt,
              "shared-nic": _shared_nic}


def durations(entry, build, full_resolve: bool) -> list[float]:
    platform, transfers = build()
    sim = Simulation(platform, entry.build(), full_resolve=full_resolve)
    return [c.duration for c in sim.simulate_transfers(transfers)]


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize(
    "entry", registered_models(), ids=lambda e: e.name)
def test_model_smokes_in_all_solver_modes(entry, topology):
    build = TOPOLOGIES[topology]
    incremental = durations(entry, build, full_resolve=False)
    full = durations(entry, build, full_resolve=True)
    assert all(d > 0 for d in incremental), incremental
    assert incremental == pytest.approx(full, rel=1e-9)
