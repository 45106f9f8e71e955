#!/usr/bin/env bash
# Builds the system under test and the benchmark driver from source, then
# runs the driver with the given arguments. Run from the repository root:
#
#   bash kb2bench/run.sh --workload ingest-durable --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the working directory (Go build cache, binaries, WAL and log files).
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
[ -f "$root/go.mod" ] || { echo "kb2bench: no go.mod in $root; run from the repository root" >&2; exit 2; }
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$out/bin/keybin2d" ./cmd/keybin2d
go build -o "$out/bin/keybin2router" ./cmd/keybin2router
(cd "$root/kb2bench" && go build -o "$out/bin/kb2bench" .)
exec "$out/bin/kb2bench" -bin "$out/bin" -work "$out/work" "$@"
