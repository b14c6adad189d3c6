#!/usr/bin/env bash
# capture_bench.sh — run the pipeline benchmarks and write a JSON baseline
# to BENCH_pipeline.json so future PRs can track the performance trajectory
# of every hot path: client encode (serial vs batch), shuffler Process
# (serial vs parallel), analyzer Open (serial vs parallel), Histogram, the
# end-to-end pipeline (in-process, single-daemon remote, and the two-hop
# blinded daemon chain — BenchmarkRemoteChain tracks per-hop transport
# overhead, and BenchmarkRemoteChainFleet, matched by the same pattern,
# tracks the replicated chain with its balanced entry tier and partitioned
# fan-in against the one-replica-per-tier baseline), the WAL durability tax
# (BenchmarkRemotePipelineWAL, matched by the BenchmarkRemotePipeline
# pattern, captures WAL-on next to the WAL-off baseline), and the hybrid
# Seal/Open allocation counts. A seeded prochloload macro sweep
# (1x1x1 and 2x2x2 loopback fleets, closed loop) lands in the same file
# under "macro", so the per-commit artifact carries both the per-stage
# micro trajectory and the whole-deployment latency/throughput trajectory.
#
# A second artifact, BENCH_crypto.json, tracks the crypto kernels under
# the pipeline on the deployed group: seal/open and El Gamal
# encrypt/blind/decrypt, serial vs the amortized batch kernels, plus the
# raw scalar-mult primitives (comb, solo wNAF, and the 256-point
# shared-scalar batch the lane kernel serves) and the uncached HashToPoint
# path. The P-256 reference backend is not captured: it exists for tests
# and its speed is not tracked (its last rows are in EXPERIMENTS.md).
# scripts/bench_delta.sh diffs two captures.
#
# A third artifact, BENCH_wire.json, tracks the frame protocol:
# BenchmarkWireCodec (one batch marshal+unmarshal through the batch codec)
# and BenchmarkForwardPush (a hop-to-hop Forward push over loopback TCP).
#
# Row names are the benchmark names without Go's "-N" GOMAXPROCS suffix; N
# is recorded once per file as "cpus", so bench_delta.sh matches rows
# between captures taken on machines with different core counts. Each file
# also records "kernel" — the ristretto255 arithmetic the capturing process
# selected (avx512ifma, amd64 or generic; see internal/crypto/group) — and
# whether /proc/cpuinfo lists avx512ifma: the batch crypto rows differ
# severalfold between kernels, and bench_delta.sh says so when two captures
# disagree instead of reporting a regression.
#
# Usage: scripts/capture_bench.sh [benchtime]    (default: 3x)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-3x}"
procs="${GOMAXPROCS:-$(nproc)}"
kernel="$(go test -count=1 -run '^TestKernelMatchesCPU$' -v ./internal/crypto/group |
  sed -n 's/.*selected kernel: \([a-z0-9]*\).*/\1/p')"
if [ -z "$kernel" ]; then
  echo "could not read the selected kernel from TestKernelMatchesCPU" >&2
  exit 1
fi
if grep -qw avx512ifma /proc/cpuinfo 2>/dev/null; then ifma=true; else ifma=false; fi
raw="$(mktemp)"
macro="$(mktemp)"
crypto="$(mktemp)"
wire="$(mktemp)"
trap 'rm -f "$raw" "$macro" "$crypto" "$wire"' EXIT

# bench_json converts `go test -bench` output lines to JSON benchmark rows
# (every "value unit" pair after the iteration count becomes a field). Go
# appends "-N" to a benchmark's name when it runs at GOMAXPROCS N > 1; that
# suffix, and only that one, is stripped.
bench_json() {
  awk -v procs="$procs" '
  BEGIN { sep = "" }
  /^Benchmark/ {
    name = $1
    if (procs != 1) sub("-" procs "$", "", name)
    printf "%s    {\"name\": \"%s\", \"iterations\": %s", sep, name, $2
    for (i = 3; i < NF; i += 2) printf ", \"%s\": %s", $(i + 1), $i
    printf "}"
    sep = ",\n"
  }
  ' "$1"
}

# header opens a capture file: when, on how many cores, on which kernel.
header() {
  printf '{\n  "captured": "%s",\n  "cpus": %s,\n  "kernel": "%s",\n  "avx512ifma": %s,\n  "benchmarks": [\n' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$procs" "$kernel" "$ifma"
}

go test -run '^$' \
  -bench 'BenchmarkShufflerProcess|BenchmarkEndToEndPipeline|BenchmarkRemotePipeline|BenchmarkRemoteChain|BenchmarkEncodeSerial|BenchmarkEncodeBatch|BenchmarkAnalyzerOpen|BenchmarkHistogram' \
  -benchtime "$benchtime" -benchmem . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkSeal64B|BenchmarkSealInto64B|BenchmarkOpen64B|BenchmarkOpenInto64B' \
  -benchmem ./internal/crypto/hybrid | tee -a "$raw"

# Macro rows: the seeded prochloload sweep, one JSON object per fleet
# shape (same seed every capture, so rows are comparable across commits).
go run ./cmd/prochloload -sweep 1x1x1,2x2x2 -seed 7 -format json -out "$macro"

{
  header
  bench_json "$raw"
  printf '\n  ],\n'
  printf '  "macro": [\n'
  sed 's/^/    /; $!s/$/,/' "$macro"
  printf '  ]\n}\n'
} > BENCH_pipeline.json

echo "wrote BENCH_pipeline.json"

# Crypto kernel rows: the hot-path benchmarks' ristretto255 legs plus the
# raw scalar-mult primitives they are built on.
go test -run '^$' -bench 'BenchmarkElGamalBackends/ristretto255|BenchmarkHashToPointCacheMiss/ristretto255' \
  -benchtime "$benchtime" -benchmem ./internal/crypto/elgamal | tee -a "$crypto"
go test -run '^$' -bench 'BenchmarkHybridBackends/ristretto255' \
  -benchtime "$benchtime" -benchmem ./internal/crypto/hybrid | tee -a "$crypto"
go test -run '^$' -bench 'BenchmarkEdCombMul|BenchmarkEdWNAFMul|BenchmarkEdMulBatch' \
  -benchtime "$benchtime" -benchmem ./internal/crypto/group | tee -a "$crypto"

{
  header
  bench_json "$crypto"
  printf '\n  ]\n}\n'
} > BENCH_crypto.json

echo "wrote BENCH_crypto.json"

# Frame-protocol rows: the batch codec and the Forward push.
go test -run '^$' -bench 'BenchmarkWireCodec|BenchmarkForwardPush' \
  -benchtime "$benchtime" -benchmem ./internal/transport | tee -a "$wire"

{
  header
  bench_json "$wire"
  printf '\n  ]\n}\n'
} > BENCH_wire.json

echo "wrote BENCH_wire.json"
