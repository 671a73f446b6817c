#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the bench binary from source
# inside the checkout — build cache and binary under .bench_build/, so the
# run writes nothing outside it — and hands the driver's arguments on.
# `go run ./bench` is the same program for people.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark measures the repository it sits in" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="${GOPATH:-$build/gopath}"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
