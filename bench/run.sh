#!/usr/bin/env bash
# Builds cmd/antennad and the benchmark from the checkout this is run in,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload solve-cold --seed 1 --seconds 16 --trace 0
#   bash bench/run.sh run -repeat 5 -seed 1 -out runs.jsonl
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# Everything it builds or writes stays under .bench_build/, including the
# Go build cache, so a run touches nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/antennad" ./cmd/antennad
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
