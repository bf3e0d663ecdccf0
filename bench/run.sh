#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the build
# writes (Go build cache included) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/castbench" .)
exec "$out/castbench" "$@"
