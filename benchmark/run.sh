#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives, then runs the benchmark.
# Building is untimed and happens before any measurement; it is repeated on
# every call (a no-op once the build cache is warm) so that a changed source
# tree is never measured through stale binaries. Everything the build and the
# run write stays under .bench_build/ in the checkout.
#
#   bash benchmark/run.sh                                   every workload, untraced then traced
#   bash benchmark/run.sh --workload chain-stream --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -smoke
#   bash benchmark/run.sh compare A/ B/
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# The benchmark is its own module (benchmark/go.mod) that requires the
# repository's module through a replace directive, so both binaries are
# built from inside it. The go tool's cache, temporary files, module path and
# per-user configuration (telemetry counters) are pointed into .bench_build.
(
	cd "$here"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
	go build -o "$build/benchmark" .
	go build -o "$build/prochlod" prochlo/cmd/prochlod
) >&2

cd "$root"
if [ "${1:-}" = compare ]; then
	exec "$build/benchmark" "$@"
fi
exec "$build/benchmark" -prochlod "$build/prochlod" "$@"
