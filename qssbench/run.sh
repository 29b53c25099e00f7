#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload:
#
#   bash qssbench/run.sh --workload pfc --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes stays under
# .bench_build/ there: the Go build cache, the binary, temporary files
# and the spans of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/qssbench" && TMPDIR="$out/tmp" go build -o "$out/qssbench" .) >&2

# A relative TMPDIR keeps the unix-socket paths of dist worker pools
# short however deep the checkout is.
cd "$root"
TMPDIR=.bench_build/tmp exec "$out/qssbench" "$@"
