#!/usr/bin/env bash
# A/A check: run the whole benchmark 2N times on this commit, alternating
# between two sets, and compare the sets with perf/compare.py --exact.
#
#   perf/aa.sh [N=3] [SEED=20120917]
#
# Writes the table to perf/results/aa_seed<SEED>.txt and all 2N runs, as one
# set compare.py reads, to perf/results/baseline_seed<SEED>.json; exits
# non-zero when a metric reads "worse" or an exact count differs between runs.
set -euo pipefail
cd "$(dirname "$0")/.."
n=${1:-3}
seed=${2:-20120917}
tmp=perf/results/.aa-$$
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
for i in $(seq "$n"); do
  for side in A B; do
    python3 perf/run.py --seed "$seed" > "$tmp/$side$i.txt"
    cp perf/results/result.json "$tmp/$side$i.json"
  done
done
for side in A B; do
  python3 perf/compare.py --collect "$tmp/$side.json" "$tmp/$side"[0-9]*.json
done
python3 perf/compare.py --collect "perf/results/baseline_seed$seed.json" \
  "$tmp/A.json" "$tmp/B.json"
python3 perf/compare.py --exact "$tmp/A.json" "$tmp/B.json" \
  | tee "perf/results/aa_seed$seed.txt"
