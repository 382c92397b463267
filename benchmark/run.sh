#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source
# into .bench_build (build cache, module cache and temporaries too, so
# nothing outside the checkout is written), then run it from the
# checkout root. Needs the whole repository: the harness imports
# ycsbt/internal/... through the replace in its go.mod.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/ycsbt-benchmark" .)
cd "$root"
exec "$build/ycsbt-benchmark" "$@"
