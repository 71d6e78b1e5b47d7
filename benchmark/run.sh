#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the build
# and the run write — Go's build cache, the binary, the disk stores — stays
# inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/bqs-benchmark" .) >&2
cd "$root"
exec "$build/bqs-benchmark" -dir "$build/tmp" "$@"
