#!/usr/bin/env bash
# Builds the benchmark of record from source and runs it with the
# given arguments (see perfbench/README.md). Run from the repository
# root: bash perfbench/run.sh --workload sweep-warm --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout
# (.bench_build), and the toolchain is never fetched from the network.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
