#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-cells --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own state (its
# temporary work dir, telemetry counters under the config dir) stay under
# .bench_build/ (or $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOTMPDIR="$out/tmp" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --trace-dir "$out/trace" "$@"
