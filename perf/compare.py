#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perf/compare.py A.json B.json [--exact]
    python3 perf/compare.py --collect SET.json RUN.json [RUN.json ...]

``A`` is the parent, ``B`` the change; each file is one ``result.json`` of
``perf/run.py`` or a set of them written by ``--collect``.  One row per
(workload, end-to-end metric), judged by the bound ``BENCHMARK.json`` fixes:

- ``better`` / ``worse``: the medians differ by more than the bound;
- ``same``: they do not, and the runs of each side agree within the bound;
- ``unresolved``: the runs of one side spread wider than the bound, so the
  medians cannot say (unless every run of B beats every run of A).

``--exact`` adds the quantities that must repeat exactly between runs of one
commit on one seed: no failed request, the forecast error, every
``*_per_req`` / ``*_per_query`` count.  Exit status is 1 on any ``worse`` or
any exact mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_SUFFIXES = ("_per_req", "_per_query")
EXACT_END_TO_END = ("forecast_abs_log2_err_median",)


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return doc["runs"] if doc.get("schema") == "perf-result-set/1" else [doc]


def collect(out: str, paths: list[str]) -> None:
    runs = [run for path in paths for run in load_runs(path)]
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"schema": "perf-result-set/1", "runs": runs}, handle)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median; 0 below two runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """How B's runs compare with A's for one metric."""
    sign = -1.0 if better == "lower" else 1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a)  # > 0: B is better
    every_run_better = min(sign * v for v in b) > max(sign * v for v in a)
    if gain > bound and every_run_better:
        return "better"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "same"


def values_of(runs: list[dict], workload: str, section: str,
              metric: str) -> list[float]:
    return [run["workloads"][workload][section][metric]["value"]
            for run in runs
            if metric in run["workloads"].get(workload, {}).get(section, {})]


def compare(runs_a: list[dict], runs_b: list[dict], contract: dict,
            exact: bool = False) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, median A, median B, unit, verdict)`` and
    whether the comparison passes."""
    rows = []
    ok = True
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = values_of(runs_a, workload, "end_to_end", metric["name"])
            b = values_of(runs_b, workload, "end_to_end", metric["name"])
            if not a or not b:
                continue
            outcome = verdict(a, b, metric["better"], metric["bound"])
            ok = ok and outcome != "worse"
            rows.append((workload, metric["name"], statistics.median(a),
                         statistics.median(b), metric["unit"], outcome))
        if not exact:
            continue
        failed = sum(run["workloads"][workload]["failed"]
                     for run in runs_a + runs_b
                     if workload in run["workloads"])
        ok = ok and failed == 0
        rows.append((workload, "failed", 0, failed, "count",
                     "identical" if failed == 0 else "DIFFERS"))
        names = [("end_to_end", n) for n in EXACT_END_TO_END] + [
            ("per_layer", m["name"]) for m in contract["per_layer"]
            if m["name"].endswith(EXACT_SUFFIXES)]
        for section, name in names:
            seen = values_of(runs_a + runs_b, workload, section, name)
            if not seen:
                continue
            same = len(set(seen)) == 1
            ok = ok and same
            rows.append((workload, name, min(seen), max(seen), "exact",
                         "identical" if same else "DIFFERS"))
    return rows, ok


def render(rows: list[tuple]) -> str:
    lines = [f"{'workload':<24}{'metric':<44}{'A':>12}{'B':>12}  "
             f"{'unit':<6} verdict"]
    for workload, metric, a, b, unit, outcome in rows:
        lines.append(f"{workload:<24}{metric:<44}{a:>12.6g}{b:>12.6g}  "
                     f"{unit:<6} {outcome}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="+")
    parser.add_argument("--collect", metavar="SET.json",
                        help="merge the given runs into one set file")
    parser.add_argument("--exact", action="store_true")
    args = parser.parse_args(argv)
    if args.collect:
        collect(args.collect, args.files)
        return 0
    if len(args.files) != 2:
        parser.error("give exactly two files: A.json B.json")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    rows, ok = compare(load_runs(args.files[0]), load_runs(args.files[1]),
                       contract, exact=args.exact)
    print(render(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
