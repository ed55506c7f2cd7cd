#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#	sh perfbench/run.sh --workload serve-prism5g --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# everything the benchmark writes stay under .bench_build/.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0
cd "$root/perfbench"
go build -o "$root/.bench_build/bin/perfbench" .
cd "$root"
exec "$root/.bench_build/bin/perfbench" "$@"
