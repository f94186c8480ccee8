#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything it
# writes — Go build cache, binary, cluster data, result files — under
# .bench_build in the current directory, which must be the repository
# root. Arguments are passed through to the benchmark:
#
#   bash benchmark/run.sh --workload dfsio_write --seed 1 --seconds 15 --trace 0
#
# The first run in a fresh checkout compiles the standard library into
# the local cache (about a minute on two cores); later runs reuse it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f BENCHMARK.json ]; then
	echo "benchmark/run.sh: run from the repository root (go.mod and BENCHMARK.json not found here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
# The go command keeps its telemetry counters and `go env -w` file in
# the user's config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$build/config"

# -buildvcs=false: the driver's checkout is not a git repository, and a
# build must not depend on whether git is usable.
go build -buildvcs=false -o "$build/octopus-benchmark" ./benchmark
exec "$build/octopus-benchmark" -workdir "$build" "$@"
