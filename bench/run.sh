#!/usr/bin/env bash
# Builds the benchmark from source and runs it; see README.md.
# Everything it writes (Go build cache, binary, shard files) stays under
# .bench_build/ at the root of the checkout this script sits in.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/dbgc-bench" .)
exec "$build/dbgc-bench" -dir "$build/work" -spec "$root/BENCHMARK.json" "$@"
