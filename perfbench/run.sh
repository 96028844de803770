#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build/
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-remote --seed 1 --seconds 10 --trace 0
#
# The Go build cache and every other file the toolchain writes stay
# under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
command -v go >/dev/null || { echo "perfbench: go toolchain not found" >&2; exit 2; }
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
