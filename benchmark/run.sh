#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments from the checkout's root. Everything the build leaves
# behind (Go build cache included) goes under .bench_build/ there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$build/alc-benchmark" .)
cd "$root"
exec "$build/alc-benchmark" "$@"
