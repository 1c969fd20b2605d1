#!/usr/bin/env bash
# Checks that two source checkouts produce the same simulated results.
#
#   scripts/prom_parity.sh BASE_DIR CHANGE_DIR
#
# BASE_DIR and CHANGE_DIR are checkouts of the two revisions (e.g. made
# with `git archive <rev> | tar -x -C dir`). Each checkout builds its own
# Release `pcapsim` in $BUILD (default build-release) on first use. Then
# `pcapsim INI --metrics=prom` runs on every examples/configs/*.ini, each
# checkout on its own copy of the INI. The wall-clock
# pcap_cycle_phase_seconds family is dropped; the rest of the output —
# the metrics table and every other registry series — must be equal.
# Prints one line per INI and exits non-zero on any difference.
set -euo pipefail

if [ $# -ne 2 ]; then
  sed -n '2,13p' "$0" >&2
  exit 2
fi
BASE=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
BUILD=${BUILD:-build-release}

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

for dir in "$BASE" "$CHANGE"; do
  if [ ! -f "$dir/$BUILD/CMakeCache.txt" ]; then
    cmake -B "$dir/$BUILD" -S "$dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
  fi
  cmake --build "$dir/$BUILD" -j "$(nproc)" --target pcapsim >/dev/null
done

# run DIR INI OUT: the filtered export in OUT; fails if pcapsim does.
run() {
  local dir=$1 ini=$2 out=$3
  if ! (cd "$dir" && "$BUILD/examples/pcapsim" "examples/configs/$ini" \
          --metrics=prom) >"$out.raw" 2>"$out.err"; then
    echo "FAILED   $ini in $dir:"
    tail -n 5 "$out.err"
    return 1
  fi
  grep -v 'pcap_cycle_phase_seconds' "$out.raw" >"$out" || true
}

status=0
inis=$( (ls "$BASE/examples/configs"; ls "$CHANGE/examples/configs") |
        grep '\.ini$' | sort -u)
for ini in $inis; do
  if [ ! -f "$BASE/examples/configs/$ini" ] ||
     [ ! -f "$CHANGE/examples/configs/$ini" ]; then
    echo "MISSING  $ini (present in one checkout only)"
    status=1
    continue
  fi
  if ! run "$BASE" "$ini" "$OUT/base" || ! run "$CHANGE" "$ini" "$OUT/change"; then
    status=1
    continue
  fi
  if cmp -s "$OUT/base" "$OUT/change"; then
    echo "same     $ini ($(wc -l <"$OUT/change") lines)"
  else
    echo "DIFFERS  $ini"
    diff "$OUT/base" "$OUT/change" | head -n 20 || true
    status=1
  fi
done
exit $status
