#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments (--workload, --seed, --seconds, --trace). Every
# build product, cache and temporary file stays under .bench_build/ in
# the checkout root, which must be the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

# Telemetry off: the go command then starts no helper process that could
# outlive the build.
go telemetry off >&2
(cd _perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
