#!/usr/bin/env bash
# Builds gmtperf from source and runs one benchmark workload.
#
# Run from the repository root:
#   bash cmd/gmtperf/run.sh --workload paper_sweep --seed 42 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and profiles stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/exp" ] || [ ! -f "$root/cmd/gmtperf/main.go" ]; then
	echo "gmtperf: run from the root of a gmt source checkout" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off

(cd "$root/cmd/gmtperf" && go build -o "$out/gmtperf" .)
exec "$out/gmtperf" -outdir "$out" "$@"
