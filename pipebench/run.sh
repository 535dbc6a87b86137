#!/usr/bin/env bash
# Builds pipebench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash pipebench/run.sh --workload web-k256 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the generated inputs stay under
# .bench_build/ in the current directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(pwd)/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$here" && go build -o "$out/bin/pipebench" .)
exec "$out/bin/pipebench" --out "$out/pipebench" "$@"
