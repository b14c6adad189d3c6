#!/usr/bin/env bash
# bench_delta.sh — warn-only drift report between two bench captures
# produced by capture_bench.sh. Prints each benchmark's ns/op movement and
# tags regressions beyond the threshold with WARN; it always exits 0,
# because shared-runner benchmark noise must never gate a merge — the
# warnings exist for a human scanning the CI log, and the checked-in
# BENCH_*.json baselines stay the honest record. When the two captures ran
# different ristretto255 kernels (the "kernel" field capture_bench.sh
# records), the report opens by saying so: the batch crypto rows differ
# severalfold between kernels, and that is the machine, not the commit.
#
# Usage: scripts/bench_delta.sh baseline.json current.json [warn_pct]
#   warn_pct: flag regressions slower than this percentage (default 25)
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 baseline.json current.json [warn_pct]" >&2
  exit 2
fi
baseline="$1"
current="$2"
warn_pct="${3:-25}"

kernel_of() { sed -n 's/.*"kernel": "\([a-z0-9]*\)".*/\1/p' "$1" | head -1; }
bk="$(kernel_of "$baseline")"
ck="$(kernel_of "$current")"
if [ "${bk:-unrecorded}" != "${ck:-unrecorded}" ]; then
  echo "NOTE: kernels differ (baseline ${bk:-unrecorded}, current ${ck:-unrecorded}): the batch crypto rows compare kernels, not only commits"
fi

awk -v warn="$warn_pct" -v basefile="$baseline" '
  function field(line, key,    re, v) {
    re = "\"" key "\": [0-9.]+"
    if (!match(line, re)) return ""
    v = substr(line, RSTART, RLENGTH)
    sub(/.*: /, "", v)
    return v
  }
  /"name":/ {
    name = $0
    sub(/.*"name": "/, "", name)
    sub(/".*/, "", name)
    ns = field($0, "ns/op")
    if (ns == "") next
    if (FILENAME == basefile) {
      base[name] = ns
      next
    }
    if (name in base) {
      delta = (ns - base[name]) * 100 / base[name]
      tag = ""
      if (delta >= warn) {
        tag = "  WARN: >" warn "% regression"
        warned++
      }
      printf "%-64s %12.0f -> %12.0f ns/op  %+7.1f%%%s\n", name, base[name], ns, delta, tag
    } else {
      printf "%-64s %12s -> %12.0f ns/op  (new)\n", name, "-", ns
    }
  }
  END {
    if (warned) printf "%d benchmark(s) regressed past %s%% (warn-only, not failing the build)\n", warned, warn
    else print "no regressions past the warn threshold"
  }
' "$baseline" "$current"
