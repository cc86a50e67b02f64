#!/usr/bin/env bash
# Builds perfbench and qoebench from this checkout into .bench_build,
# then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload access-media --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/qoebench ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/qoebench and perfbench/)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$build/bin"

go build -o "$build/bin/qoebench" ./cmd/qoebench
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -qoebench "$build/bin/qoebench" -out "$build/perfbench" "$@"
