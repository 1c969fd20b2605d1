#!/usr/bin/env bash
# Alternating A/B of the end-to-end benchmark between two source checkouts.
#
#   scripts/e2e_ab.sh BASE_DIR CHANGE_DIR WORKLOAD SEED PAIRS SECONDS [OUT.jsonl]
#
# BASE_DIR and CHANGE_DIR are checkouts of the two revisions (e.g. made
# with `git worktree add` or `git archive | tar -x`). Each pair runs
# `python3 e2ebench/run.py --workload WORKLOAD --seed SEED --seconds
# SECONDS --trace 0` once in each checkout; the order flips every pair so
# slow drift on a shared host lands on both sides equally. Each checkout
# builds its own Release tree on its first run, outside the timing.
#
# Prints, per end-to-end metric of BENCHMARK.json: the median and
# quartiles of each side, the number of pairs the change won (by the
# metric's "better" direction) and whether every digest of both sides was
# equal. With OUT.jsonl, every run's result line is appended there too.
set -euo pipefail

if [ $# -lt 6 ]; then
  sed -n '2,15p' "$0" >&2
  exit 2
fi
BASE=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
WORKLOAD=$3
SEED=$4
PAIRS=$5
SECONDS_ARG=$6
OUT=${7:-}
HERE=$(cd "$(dirname "$0")/.." && pwd)

RUNS=$(mktemp)
ERRS=$(mktemp)
trap 'rm -f "$RUNS" "$ERRS"' EXIT

run_side() {
  local side=$1 dir=$2 pair=$3 log
  # run.py's stderr (the build, and any failed check) is kept for a
  # failed run only.
  log=$(cd "$dir" && python3 e2ebench/run.py --workload "$WORKLOAD" \
        --seed "$SEED" --seconds "$SECONDS_ARG" --trace 0 2>"$ERRS") || {
    echo "e2e_ab: $side run failed in $dir; the end of its stderr:" >&2
    tail -n 40 "$ERRS" >&2
    exit 1
  }
  local digest result
  digest=$(printf '%s\n' "$log" | sed -n 's/^digest: \([0-9a-f]*\).*/\1/p')
  result=$(printf '%s\n' "$log" | tail -n 1)
  printf '{"side": "%s", "pair": %d, "digest": "%s", "result": %s}\n' \
    "$side" "$pair" "$digest" "$result" >>"$RUNS"
  echo "pair $pair $side digest $digest" >&2
}

for ((i = 0; i < PAIRS; i++)); do
  if ((i % 2 == 0)); then
    run_side base "$BASE" "$i"
    run_side change "$CHANGE" "$i"
  else
    run_side change "$CHANGE" "$i"
    run_side base "$BASE" "$i"
  fi
done
[ -z "$OUT" ] || cat "$RUNS" >>"$OUT"

python3 - "$RUNS" "$HERE/BENCHMARK.json" "$WORKLOAD" "$SEED" "$SECONDS_ARG" <<'EOF'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
by = {"base": {}, "change": {}}
for r in runs:
    by[r["side"]][r["pair"]] = r
pairs = sorted(by["base"])


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[0], statistics.median(xs), q[2]


digests = {r["digest"] for r in runs}
print("workload %s  seed %s  --seconds %s  pairs %d  digests %s" % (
    sys.argv[3], sys.argv[4], sys.argv[5], len(pairs),
    "equal (%s)" % digests.pop() if len(digests) == 1 else "DIFFER: " + " ".join(sorted(digests))))
print("%-18s %-28s %-28s %s" % ("metric", "base median [q1, q3]",
                                "change median [q1, q3]", "change wins"))
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    vals = {s: [by[s][p]["result"]["metrics"][name]["value"] for p in pairs]
            for s in by}
    wins = sum((c > b) if higher else (c < b)
               for b, c in zip(vals["base"], vals["change"]))
    cells = []
    for s in ("base", "change"):
        q1, med, q3 = quartiles(vals[s])
        cells.append("%.4g [%.4g, %.4g]" % (med, q1, q3))
    print("%-18s %-28s %-28s %d/%d" % (name, cells[0], cells[1], wins, len(pairs)))
EOF
