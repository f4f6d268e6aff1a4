"""Incremental vs. full re-solve: the event-loop speedup that motivates the
persistent :class:`~repro.simgrid.maxmin.SharingSystem` arena.

Workloads:

- the 30x30 (fig5, sagittaire) and 50x50 (fig9, graphene) campaign shapes
  with the full 10-point size sweep running concurrently — completions
  arrive in waves, so the event loop re-shares bandwidth many times per run,
- a 50x50-scale *disjoint-pair* shape (100-host star, 50 independent
  src→dst pairs, staggered arrivals): the many-small-components regime the
  incremental arena is built for.  Full re-solve pays an O(live)
  from-scratch rebuild at every one of ~900 events while the incremental
  path re-solves only the touched pair.

Timed region is ``Simulation.run()`` only (the event loop); workload
construction is identical in both modes and excluded.

Asserted: ≥10x on the disjoint 50x50 shape and ≥3x on the 30x30 campaign
shape, plus 1e-9 equivalence between the two modes (smoke included).
"""

from __future__ import annotations

import os
import time

from _harness import root_seed
from repro.analysis.tables import render_table
from repro.experiments import environment
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import TRANSFER_SIZES, draw_transfer_pairs
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.engine import Simulation
from repro.simgrid.models import LV08

SMOKE = bool(os.environ.get("REPRO_SMOKE"))
REPEATS = 10 if SMOKE else 40
ROUNDS = 3 if SMOKE else 6
# the disjoint-pair shape runs ~10x longer per repetition in full mode
REPEATS_LARGE = 2 if SMOKE else 6
ROUNDS_LARGE = 2 if SMOKE else 3
MODEL = LV08()


def campaign_workload(fig_id: str) -> list[tuple[str, str, float]]:
    pairs = draw_transfer_pairs(FIGURES[fig_id].spec, root_seed())
    return [
        (src, dst, TRANSFER_SIZES[i % len(TRANSFER_SIZES)])
        for i, (src, dst) in enumerate(pairs)
    ]


def disjoint_events(n_pairs: int = 50, waves: int = 6,
                    horizon: float = 6.0) -> list[tuple[float, str, str, float]]:
    """Staggered transfers over ``n_pairs`` disjoint host pairs of a star.

    Pair ``i`` sends from host ``2i+1`` to host ``2i+2``; no two pairs share
    a link, so every transfer is its own max-min component.  Starts are
    staggered deterministically over ``horizon`` and sizes cycle through the
    campaign sweep with a pair-dependent offset so completions don't
    coincide — the event loop sees one small re-share per event at a
    steady-state live count of roughly ``n_pairs``.
    """
    events = []
    for wave in range(waves):
        for pair in range(n_pairs):
            src = f"disjoint-{2 * pair + 1}"
            dst = f"disjoint-{2 * pair + 2}"
            # 4x the campaign sizes: transfers outlive the stagger interval,
            # so the event loop sees the saturated steady state (most of the
            # 300 transfers live at once) where full_resolve's O(live)
            # rebuild per event dominates
            size = 4.0 * TRANSFER_SIZES[(pair * 7 + wave * 3) % len(TRANSFER_SIZES)]
            start = horizon * ((pair * waves + wave) % (n_pairs * waves)) / (
                n_pairs * waves
            )
            events.append((start, src, dst, size))
    return events


def disjoint_platform(n_pairs: int = 50):
    return build_star_cluster("disjoint", 2 * n_pairs)


def prepare_campaign(platform, workload,
                     full_resolve: bool) -> tuple[Simulation, list]:
    """Build a ready-to-run simulation with all transfers starting at t=0."""
    sim = Simulation(platform, MODEL, full_resolve=full_resolve)
    comms = [sim.add_comm(src, dst, size) for src, dst, size in workload]
    return sim, comms


def prepare_staggered(platform, events,
                      full_resolve: bool) -> tuple[Simulation, list]:
    """Build a ready-to-run simulation with timer-scheduled transfer starts."""
    sim = Simulation(platform, MODEL, full_resolve=full_resolve)
    comms: list = []
    for at, src, dst, size in events:
        sim.schedule(at, lambda s=src, d=dst, z=size: comms.append(
            sim.add_comm(s, d, z)))
    return sim, comms


def durations_of(prepared: tuple[Simulation, list]) -> list[float]:
    sim, comms = prepared
    sim.run()
    return [c.duration for c in comms]


def paired_best_of(make_full, make_inc, repeats: int = REPEATS,
                   rounds: int = ROUNDS) -> tuple[float, float]:
    """Best mean event-loop (``run()``) time per mode; setup stays untimed.

    The two modes are interleaved within every round so background load
    drift hits both sides equally — the speedup ratio stays meaningful even
    on a busy machine."""
    best_full = best_inc = float("inf")
    for _ in range(rounds):
        total_full = total_inc = 0.0
        for _ in range(repeats):
            sim, _ = make_full()
            t0 = time.perf_counter()
            sim.run()
            total_full += time.perf_counter() - t0
            sim, _ = make_inc()
            t0 = time.perf_counter()
            sim.run()
            total_inc += time.perf_counter() - t0
        best_full = min(best_full, total_full / repeats)
        best_inc = min(best_inc, total_inc / repeats)
    return best_full, best_inc


def summary_statistics(values: list[float]) -> dict[str, str]:
    """Summary stats at the 12-significant-digit precision the report tables
    use; identical dicts == bitwise-stable summaries."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    return {
        "n": str(n),
        "min": f"{ordered[0]:.12g}",
        "median": f"{median:.12g}",
        "max": f"{ordered[-1]:.12g}",
        "mean": f"{sum(ordered) / n:.12g}",
    }


def assert_durations_close(label: str, reference: list[float],
                           candidate: list[float]) -> float:
    assert len(reference) == len(candidate), (
        f"{label}: {len(reference)} vs {len(candidate)} transfers"
    )
    worst_rel = max(
        abs(a - b) / max(a, b) for a, b in zip(reference, candidate)
    )
    assert worst_rel <= 1e-9, (
        f"{label}: allocations drifted (max rel diff {worst_rel:.2e})"
    )
    return worst_rel


def compare_modes(fig_id: str, console, min_speedup: float) -> float:
    platform = environment.g5k_test_platform()
    workload = campaign_workload(fig_id)
    # warm route/spec caches so neither mode pays one-time setup
    durations_of(prepare_campaign(platform, workload, True))
    durations_of(prepare_campaign(platform, workload, False))

    full_durations = durations_of(prepare_campaign(platform, workload, True))
    inc_durations = durations_of(prepare_campaign(platform, workload, False))
    worst_rel = assert_durations_close(
        f"{fig_id} full vs incremental", full_durations, inc_durations
    )
    full_stats = summary_statistics(full_durations)
    inc_stats = summary_statistics(inc_durations)
    assert full_stats == inc_stats, (
        f"{fig_id}: summary statistics not stable: {full_stats} vs {inc_stats}"
    )

    full_dt, inc_dt = paired_best_of(
        lambda: prepare_campaign(platform, workload, True),
        lambda: prepare_campaign(platform, workload, False),
    )
    speedup = full_dt / inc_dt
    sim, _ = prepare_campaign(platform, workload, False)
    sim.run()
    console(render_table(
        ["metric", "full_resolve", "incremental"],
        [
            ("event-loop time (ms)", full_dt * 1e3, inc_dt * 1e3),
            ("speedup", 1.0, speedup),
            ("max rel duration diff", 0.0, worst_rel),
        ],
        title=f"{fig_id} ({len(workload)} transfers, 10-size sweep): "
              f"{speedup:.2f}x — sharing {sim.sharing_stats}",
    ))
    if SMOKE:
        # smoke mode exists to prove the bench still runs; wall-clock ratios
        # on a loaded CI machine are not a correctness signal there
        console(f"{fig_id}: smoke mode — speedup {speedup:.2f}x reported, "
                f"≥{min_speedup}x not asserted")
    else:
        assert speedup >= min_speedup, (
            f"{fig_id}: incremental solver only {speedup:.2f}x faster than "
            f"full_resolve (required ≥{min_speedup}x)"
        )
    return speedup


def compare_disjoint(console, min_speedup: float) -> float:
    n_pairs = 10 if SMOKE else 50
    waves = 3 if SMOKE else 6
    platform = disjoint_platform(n_pairs)
    events = disjoint_events(n_pairs, waves)
    durations_of(prepare_staggered(platform, events, True))  # warm caches

    full_durations = durations_of(prepare_staggered(platform, events, True))
    inc_durations = durations_of(prepare_staggered(platform, events, False))
    worst_rel = assert_durations_close(
        "disjoint full vs incremental", full_durations, inc_durations
    )

    full_dt, inc_dt = paired_best_of(
        lambda: prepare_staggered(platform, events, True),
        lambda: prepare_staggered(platform, events, False),
        REPEATS_LARGE, ROUNDS_LARGE,
    )
    speedup = full_dt / inc_dt
    sim, _ = prepare_staggered(platform, events, False)
    sim.run()
    console(render_table(
        ["metric", "full_resolve", "incremental"],
        [
            ("event-loop time (ms)", full_dt * 1e3, inc_dt * 1e3),
            ("speedup", 1.0, speedup),
            ("max rel duration diff", 0.0, worst_rel),
        ],
        title=f"50x50 disjoint pairs ({len(events)} staggered transfers): "
              f"{speedup:.2f}x — sharing {sim.sharing_stats}",
    ))
    if SMOKE:
        console(f"disjoint: smoke mode — speedup {speedup:.2f}x reported, "
                f"≥{min_speedup}x not asserted")
    else:
        assert speedup >= min_speedup, (
            f"disjoint 50x50: incremental solver only {speedup:.2f}x faster "
            f"than full_resolve (required ≥{min_speedup}x)"
        )
    return speedup


def test_incremental_speedup_30x30(console, benchmark):
    compare_modes("fig5", console, min_speedup=3.0)
    platform = environment.g5k_test_platform()
    workload = campaign_workload("fig5")
    benchmark(lambda: durations_of(prepare_campaign(platform, workload, False)))


def test_incremental_speedup_50x50(console, benchmark):
    # graphene's shared uplinks form one large component, so the incremental
    # win is structurally smaller than on the disjoint sagittaire shape —
    # assert it still clearly beats rebuilding from scratch
    compare_modes("fig9", console, min_speedup=1.2)
    platform = environment.g5k_test_platform()
    workload = campaign_workload("fig9")
    benchmark(lambda: durations_of(prepare_campaign(platform, workload, False)))


def test_incremental_speedup_50x50_disjoint(console, benchmark):
    compare_disjoint(console, min_speedup=10.0)
    platform = disjoint_platform()
    events = disjoint_events()
    benchmark(lambda: durations_of(prepare_staggered(platform, events, False)))
