#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout — binary, build cache
# and the go tool's own config all under .bench_build — and runs it with the
# arguments given. BENCHMARK.json names this script as the command.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# A fresh config dir makes the go command start its once-a-day telemetry child,
# which outlives this script; mode "off" means no counter files and no child.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/rknn-bench ./bench
exec .bench_build/rknn-bench "$@"
