#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload ecb_bulk --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build/ in
# the checkout, so the benchmark reads and writes nothing outside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOFLAGS= GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
