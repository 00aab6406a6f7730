#!/usr/bin/env bash
# Builds the benchmark and the campaignd binary its serve workloads
# query, then runs the benchmark from the repository root:
#
#   bash bench/run.sh --workload campaign-1m --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 7 -reps 5 -out results.json   # every workload
#   bash bench/run.sh compare A.json B.json
#
# Go's build cache, module cache and config all live under .bench_build/
# so a run reads and writes nothing outside the checkout. Without the
# parent module (a directory holding only bench/) the build fails and
# the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

cd "$root/bench"
go build -o "$build/bench" .
go build -o "$build/campaignd" github.com/actfort/actfort/cmd/campaignd
cd "$root"
exec "$build/bench" -campaignd "$build/campaignd" "$@"
