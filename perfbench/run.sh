#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload warm-quotes --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
#
# The Go build cache, the binary, result files, span dumps and scratch
# ledgers all stay under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$here" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
