#!/usr/bin/env bash
# The one command of the benchmark (BENCHMARK.json names it). It builds the
# driver from source into .bench_build/ at the checkout root — Go's build
# cache, module cache and temp files are kept there too, so nothing is
# written outside the checkout — and then runs it with the caller's
# arguments from the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
# The go command keeps its telemetry counters under the user config dir.
XDG_CONFIG_HOME="$build/config" go build -C "$root/benchmark" -o "$build/uts-benchmark" .
cd "$root"
exec "$build/uts-benchmark" "$@"
