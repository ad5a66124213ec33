#!/usr/bin/env bash
# Builds refidemd and perfbench from this checkout, then runs perfbench.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload label-cold --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/perfbench: the
# Go build cache and temporary files, the two binaries, daemon logs, stores
# and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

go build -o "$out/refidemd" ./cmd/refidemd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -refidemd "$out/refidemd" -work "$out/work" "$@"
