#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run it from the
# root of the repository:
#
#   bash campaignbench/run.sh --workload shallow --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and temporary files all stay under
# .bench_build/ in the repository.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd campaignbench && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
