#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run it
# from the repository root; the build cache and the binary go to
# .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOCACHE="$out/gocache" GOTMPDIR="$out"
go -C "$(dirname "$0")" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
