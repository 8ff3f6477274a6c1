#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through:
#
#   bash bench/e2e/run.sh -workloads social-10x,fleet-256x8 -runs 5 -out r.json
#
# The Go build cache, temporary files, the binary and default trace output all
# stay under .bench_build/ at the repository root, so a run writes nothing
# outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/bench/e2e" build -o "$build/ursa-e2e" .
exec "$build/ursa-e2e" "$@"
