#!/usr/bin/env bash
# Builds trajserve and the benchmark from this checkout into .bench_build
# (Go caches included, so nothing is written outside the checkout), then
# runs one workload:
#
#   bash perfbench/run.sh --workload exact-mix --seed 1 --seconds 36 --trace 0
#
# Run it from the repository root. A directory without the repository's
# sources fails the build and exits non-zero without a result line.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/perfbench"
export GOENV=off GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/trajserve" ]; then
	echo "perfbench: run from the trajmatch repository root (no go.mod or cmd/trajserve here)" >&2
	exit 2
fi
go build -o "$out/bin/trajserve" ./cmd/trajserve >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin/trajserve" -work "$out/perfbench" -root "$root" "$@"
