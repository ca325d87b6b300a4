#!/usr/bin/env bash
# Builds frbench from source and runs it with the given arguments, from
# the directory this script is invoked in (the repository root):
#
#   bash cmd/frbench/run.sh --workload estimate-cube --seed 1 --seconds 20 --trace 0
#   bash cmd/frbench/run.sh -seed 1 -out run.json
#
# Every Go cache, module and config path points into .bench_build under
# the current directory, so a run reads and writes nothing outside it.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go -C cmd/frbench build -o "$build/frbench" .
exec "$build/frbench" "$@"
