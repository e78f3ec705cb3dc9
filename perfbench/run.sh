#!/usr/bin/env bash
# Builds the SHRIMP simulator benchmark from the sources of the checkout
# it sits in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache, telemetry and module
# state) stays under .bench_build at the checkout root; the run's reports
# go to .bench_out. Without the simulator's sources beside perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
