"""Serial vs. parallel campaign execution.

The campaign maps one per-combination function either over a list or over
a process pool, with each combination's seed derived from the root seed and
its id, and aggregates results in campaign order — so the parallel path
must be **bit-identical** to the serial one, just faster.  This bench runs
a mid-size slice of the §V-A campaign both ways and asserts:

- identical per-combination rows and identical pooled §V-B statistics
  (always, including smoke mode — determinism is a correctness signal), and
- ≥ 2x wall-clock speedup on 4 workers (only on machines with ≥ 4 cores and
  outside smoke mode, where wall-clock ratios mean something).
"""

from __future__ import annotations

import os
import time

from _harness import root_seed
from repro.analysis.tables import render_table
from repro.experiments import environment
from repro.experiments.campaign import (
    campaign_combinations,
    campaign_summary,
    run_campaign,
)

SMOKE = bool(os.environ.get("REPRO_SMOKE"))
WORKERS = 2 if SMOKE else 4
MIN_SPEEDUP = 2.0
COUNTS = (1, 10) if SMOKE else (10, 30)
SIZES = (5.99e7,) if SMOKE else (5.99e7, 7.74e8, 1e10)
REPS = 1


def run_both() -> tuple[dict, dict, float, float]:
    forecast, network = environment.forecast_service(), environment.testbed()
    seed = root_seed()
    combinations = campaign_combinations(counts=COUNTS)

    t0 = time.perf_counter()
    serial = run_campaign(
        forecast, network, combinations=combinations, seed=seed,
        repetitions=REPS, sizes=SIZES,
    )
    serial_dt = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_campaign(
        forecast, network, combinations=combinations, seed=seed,
        repetitions=REPS, sizes=SIZES, workers=WORKERS,
    )
    parallel_dt = time.perf_counter() - t0
    return serial, parallel, serial_dt, parallel_dt


def test_parallel_campaign_speedup_and_equivalence(console, benchmark):
    serial, parallel, serial_dt, parallel_dt = run_both()

    # bit-identical results, independent of worker count and scheduling
    assert list(serial) == list(parallel)
    for cid in serial:
        assert serial[cid].rows() == parallel[cid].rows(), cid
    serial_stats = campaign_summary(serial)
    parallel_stats = campaign_summary(parallel)
    assert serial_stats == parallel_stats  # dataclass float equality: bitwise

    speedup = serial_dt / parallel_dt
    console(render_table(
        ["metric", "serial", f"parallel ({WORKERS} workers)"],
        [
            ("wall time (s)", serial_dt, parallel_dt),
            ("speedup", 1.0, speedup),
            ("combinations", len(serial), len(parallel)),
            ("large-transfer observations",
             serial_stats.n_observations, parallel_stats.n_observations),
        ],
        title=f"campaign slice {COUNTS}x{COUNTS}, {len(SIZES)} sizes: "
              f"{speedup:.2f}x on {WORKERS} workers "
              f"({os.cpu_count()} cores available)",
    ))

    cores = os.cpu_count() or 1
    if SMOKE:
        console(f"smoke mode — speedup {speedup:.2f}x reported, "
                f"≥{MIN_SPEEDUP}x not asserted")
    elif cores < 4:
        console(f"only {cores} cores — speedup {speedup:.2f}x reported, "
                f"≥{MIN_SPEEDUP}x needs ≥4 cores to be meaningful")
    else:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel campaign only {speedup:.2f}x faster than serial on "
            f"{WORKERS} workers (required ≥{MIN_SPEEDUP}x)"
        )

    benchmark(lambda: campaign_summary(parallel))
