#!/bin/sh
# Builds the benchmark from the checkout's source and runs it with the
# arguments given. Everything the build writes (binary, Go build cache,
# the toolchain's own files under HOME) stays in .bench_build inside the
# checkout. In a directory without the repository the build fails, and
# so does this script, before anything is measured.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
(cd "$root/benchmark" &&
	HOME="$build/home" GOCACHE="$build/gocache" GOTOOLCHAIN=local go build -o "$build/dlhub-benchmark" .)
cd "$root"
exec "$build/dlhub-benchmark" "$@"
