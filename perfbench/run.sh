#!/usr/bin/env bash
# Builds the benchmark and the sftserve binary it drives from the
# checkout's sources, then runs the benchmark with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-offline --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout (Go build cache included).
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sftserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sftserve and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/bin/sftserve" ./cmd/sftserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -server-bin "$out/bin/sftserve" -work-dir "$out/run" "$@"
