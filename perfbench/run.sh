#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given, from the checkout root:
#
#   bash perfbench/run.sh --workload fleet-1024 --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build and module caches, the go command's own
# config and traced-run spans stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --span-dir "$out/spans" "$@"
