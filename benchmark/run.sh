#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload ldbc-serial --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# and the Chrome traces stay under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the root of a pghive checkout (go.mod, internal/ and benchmark/ are needed)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
