#!/usr/bin/env bash
# Builds servebench from the checkout this script sits in and runs it
# with the given flags, e.g.
#
#   bash servebench/run.sh --workload flow_burst --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. The Go build cache and the
# binary stay under .bench_build/ there; nothing is fetched.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off GOWORK=off
(cd "$here" && go build -o "$build/servebench" .)
SERVEBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export SERVEBENCH_COMMIT
exec "$build/servebench" "$@"
