#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload sort-mem --seed 1 --seconds 20 --trace 0
# Run it from the root of the repository. The build, Go's caches and the
# traced runs' span files all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the repository.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -out-dir "$out" "$@"
