#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload fig1_optimize --seed 1 --seconds 20 --trace 0
#
# The build, its caches and the traced run's spans stay in .bench_build/
# at the repository root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out/spans" "$@"
