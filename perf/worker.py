"""One workload, one fresh interpreter.

``perf/run.py`` spawns this module once per workload (and three more times
per workload with ``--setup-only`` to time set-up).  It builds the
deployment, verifies every answer against ground truth simulated before any
server existed, measures, and writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

from repro._util.rng import derive_seed
from repro.experiments import environment
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import TRANSFER_SIZES
from repro.experiments.runner import run_experiment

from perf import ladders
from perf.estimator import estimate, probe, speed_factor
from perf.loop import MIN_ROUNDS, run_round, timed_phase
from perf.spans import SpanRecorder
from perf.workloads import PLATFORM, WORKLOADS, Workload

#: root seed of the forecast-error repetition: the paper campaign's, not
#: ``--seed`` — the metric pins the model, so its input never varies
ERROR_SEED = 20120917
TRACED_ROUNDS = 2


def forecast_error(workload: Workload, smoke: bool) -> float:
    """Median |log2(predicted / testbed-measured)| over one repetition of
    the workload's figure, with the workload's model."""
    indices = workload.error_sizes[:1] if smoke else workload.error_sizes
    series = run_experiment(
        FIGURES[workload.figure].spec, workload.service,
        environment.testbed(), platform_name=PLATFORM,
        seed=derive_seed(ERROR_SEED, "perf", "forecast-error"),
        repetitions=1, sizes=tuple(TRANSFER_SIZES[i] for i in indices))
    return statistics.median(
        abs(e) for point in series.points for e in point.errors)


def peak_rss_mb(workload: Workload) -> float:
    """High-water resident set of this process plus its shard children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in workload.child_pids():
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def first_answer(workload: Workload) -> bool:
    entry = workload.entries[0]
    workload.before(entry)
    return workload.send(0, entry)[2]


def measure(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload](args.seed)
    workload.build()
    workload.make_requests()
    if args.smoke:
        workload.shorten()
    workload.compute_truth(only_first=args.setup_only)
    workload.start()
    try:
        ok = first_answer(workload)
        doc: dict = {"workload": workload.name, "seed": args.seed,
                     "first_answer_unix": time.time(), "first_correct": ok,
                     "setup_probe_s": probe()}
        if not args.setup_only:
            build_s = workload.build_s * speed_factor(doc["setup_probe_s"],
                                                      busy_share=1.0)
            doc.update(_measure_started(workload, args, build_s))
        return doc
    finally:
        workload.stop()


def _measure_started(workload: Workload, args: argparse.Namespace,
                     build_s: float) -> dict:
    smoke = args.smoke
    if not smoke:
        run_round(workload)  # warm-up: caches fill, lazy set-up finishes
    stats_before = workload.server_stats()
    rss: list[float] = []
    rounds = timed_phase(
        workload, args.seconds, 1 if smoke else MIN_ROUNDS,
        after_min_rounds=lambda: rss.append(peak_rss_mb(workload)))
    untraced = estimate(rounds)
    stats_after = workload.server_stats()
    doc: dict = {"attempted": untraced.attempted, "failed": untraced.failed,
                 "rounds": untraced.rounds, "probe_ms": untraced.probe_ms}
    if args.trace in ("0", "both"):
        doc["end_to_end"] = {
            "latency_ms_p50": untraced.latency_ms_p50,
            "throughput_rps": untraced.throughput_rps,
            "within_100ms_share": untraced.within_100ms_share,
            "forecast_abs_log2_err_median": forecast_error(workload, smoke),
            "peak_rss_mb": rss[0],
        }
    if args.trace in ("1", "both"):
        recorder = SpanRecorder()
        tally = ladders.traced_pass(workload, recorder,
                                    1 if smoke else TRACED_ROUNDS)
        layers = ladders.layer_metrics(workload, recorder.spans, tally,
                                       untraced, build_s, stats_before,
                                       stats_after)
        layers.update(ladders.count_calls(workload, warm=not smoke))
        doc["attempted"] += sum(len(r.latencies_s) for r in tally.rounds)
        doc["failed"] += tally.mismatches
        doc["per_layer"] = layers
        doc["ladder_violations"] = (
            [] if smoke else ladders.ladder_violations(recorder.spans,
                                                       workload))
        doc["spans"] = recorder.spans
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    doc = measure(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
