#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload fedknow_train --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays inside the checkout (.bench_build/ at its
# root): the Go build cache, temporary files and the binary. The first run in
# a fresh checkout therefore compiles the standard library too (about a
# minute on two cores); later runs only check that nothing changed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/fed" ]; then
	echo "benchmark: $root does not hold the repository (go.mod, internal/fed): there is nothing to measure" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(
	cd "$here"
	env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
		GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0 \
		go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/fedbench" .
)
exec "$build/fedbench" -home "$here" "$@"
