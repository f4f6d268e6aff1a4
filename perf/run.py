#!/usr/bin/env python3
"""The benchmark of record: one command, every metric by name.

    python3 perf/run.py [--seed N] [--workload W] [--smoke]

runs the workloads of ``BENCHMARK.json``, each in a fresh interpreter,
verifies every answer, prints every end-to-end and per-layer metric with its
unit and writes ``perf/results/result.json`` and ``perf/results/trace.json``.

With ``--trace 0`` or ``--trace 1`` (how the PR driver calls it, always with
one ``--workload``) the last line of standard output is one JSON object
holding only the end-to-end or only the per-layer metrics.

Exit status is non-zero when an answer was wrong, when the metric names
measured differ from ``BENCHMARK.json``, or when a ladder level read faster
than the level below it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # run as a script: make ``perf`` importable
    sys.path.insert(0, ROOT)

from perf.estimator import probe, speed_factor  # noqa: E402
from perf.spans import write_trace  # noqa: E402

RESULTS = os.path.join(ROOT, "perf", "results")
DEFAULT_SEED = 20120917
#: fresh interpreters timed from spawn to first verified answer
SETUP_SPAWNS = 3
WORKER_TIMEOUT_S = 160


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spawn_worker(workload: str, seed: int, results: str,
                 extra: list[str]) -> tuple[dict, float]:
    """Run ``perf.worker`` in a fresh interpreter; (its document, seconds
    from spawn to its first verified answer, at reference speed)."""
    out = os.path.join(results, f".worker-{os.getpid()}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
    env["PYTHONHASHSEED"] = "0"  # same seed, same run: no per-process salt
    command = [sys.executable, "-m", "perf.worker", "--workload", workload,
               "--seed", str(seed), "--out", out, *extra]
    probe_before = probe()
    spawned = time.time()
    try:
        # the worker's stdout must not end up after our result line
        subprocess.run(command, cwd=ROOT, env=env, check=True,
                       stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
        with open(out, encoding="utf-8") as handle:
            doc = json.load(handle)
    finally:
        if os.path.exists(out):
            os.remove(out)
    # set-up is CPU work from the first import on: rescale all of it, by
    # the probes on either side (ours before the spawn, the worker's after
    # its first answer)
    return doc, ((doc["first_answer_unix"] - spawned) * speed_factor(
        (probe_before + doc["setup_probe_s"]) / 2.0, busy_share=1.0))


def run_workload(name: str, seed: int, seconds: float, trace: str,
                 smoke: bool, results: str) -> dict:
    """One workload's document: set-up spawns first, then the measurement."""
    setups = []
    wrong_first = 0
    if trace != "1" and not smoke:
        for _ in range(SETUP_SPAWNS):
            doc, setup_s = spawn_worker(
                name, seed, results, ["--seconds", "0", "--setup-only"])
            setups.append(setup_s)
            wrong_first += not doc["first_correct"]
    extra = ["--seconds", "0" if smoke else str(seconds), "--trace", trace]
    if smoke:
        extra.append("--smoke")
    doc, own_setup_s = spawn_worker(name, seed, results, extra)
    doc["attempted"] += 1 + len(setups)
    doc["failed"] += wrong_first + (not doc["first_correct"])
    if "end_to_end" in doc:
        doc["end_to_end"]["setup_s"] = statistics.median(
            setups or [own_setup_s])
    return doc


def with_units(values: dict, declared: list[dict]) -> dict:
    units = {m["name"]: m["unit"] for m in declared}
    return {name: {"value": value, "unit": units.get(name, "undeclared")}
            for name, value in values.items()}


def check_names(doc: dict, contract: dict) -> list[str]:
    problems = []
    for section in ("end_to_end", "per_layer"):
        if section not in doc:
            continue
        declared = {m["name"] for m in contract[section]}
        measured = set(doc[section])
        for name in sorted(declared ^ measured):
            where = "BENCHMARK.json" if name in measured else "the run"
            problems.append(f"{doc['workload']}: {section} metric {name!r} "
                            f"is missing from {where}")
    return problems


def print_table(results: dict) -> None:
    print(f"{'workload':<24}{'metric':<44}{'value':>14}  unit")
    for name, entry in results.items():
        share = entry["failed"] / entry["attempted"]
        print(f"{name:<24}{'failed_share':<44}{share:>14.6g}  share "
              f"({entry['failed']} of {entry['attempted']} sent)")
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(section, {}).items():
                print(f"{name:<24}{metric:<44}{cell['value']:>14.6g}  "
                      f"{cell['unit']}")


def result_line(entry: dict, trace: str, ok: bool) -> str:
    """The PR driver's contract: one workload, one JSON object, printed as
    the last line of standard output."""
    section = "end_to_end" if trace == "0" else "per_layer"
    return json.dumps({"correct": entry["correct"] and ok,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"],
                       "metrics": entry[section]})


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="length of the timed phase of each workload")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--smoke", action="store_true",
                        help="one short round per workload, no set-up "
                             "spawns: checks plumbing, not speed")
    parser.add_argument("--results", default=RESULTS, metavar="DIR",
                        help="where result.json and trace.json go")
    args = parser.parse_args(argv)
    if args.trace != "both" and not args.workload:
        parser.error("--trace 0/1 prints one workload's metrics: "
                     "name it with --workload")

    args.results = os.path.abspath(args.results)  # workers run from ROOT
    os.makedirs(args.results, exist_ok=True)
    results: dict[str, dict] = {}
    spans: dict[str, list] = {}
    problems: list[str] = []
    for name in ([args.workload] if args.workload else names):
        doc = run_workload(name, args.seed, args.seconds, args.trace,
                           args.smoke, args.results)
        problems += check_names(doc, contract)
        problems += [f"{name}: {v}" for v in doc.get("ladder_violations", [])]
        if doc["failed"]:
            problems.append(f"{name}: {doc['failed']} of {doc['attempted']} "
                            f"answers were wrong, refused or failed")
        spans[name] = doc.pop("spans", [])
        entry = {key: doc[key] for key in
                 ("attempted", "failed", "rounds", "probe_ms")}
        entry["correct"] = doc["failed"] == 0
        for section in ("end_to_end", "per_layer"):
            if section in doc:
                entry[section] = with_units(doc[section], contract[section])
        results[name] = entry

    with open(os.path.join(args.results, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"schema": "perf-result/1", "seed": args.seed,
                   "seconds": args.seconds, "smoke": args.smoke,
                   "workloads": results}, handle, indent=1)
    if args.trace != "0":
        write_trace(os.path.join(args.results, "trace.json"), spans)
    print_table(results)
    for problem in problems:
        print(f"FAILED  {problem}", file=sys.stderr)
    if args.trace != "both":
        (entry,) = results.values()
        print(result_line(entry, args.trace, not problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
