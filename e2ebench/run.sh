#!/usr/bin/env bash
# Builds navserve and the benchmark from this checkout's sources and
# runs one benchmark invocation; arguments pass through, e.g.
#   bash e2ebench/run.sh --workload museum-browse --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout, or under $CARGO_TARGET_DIR when
# that is set (a path relative to the checkout, or an absolute one).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/navserve" ./cmd/navserve
(cd e2ebench && go build -o "$out/e2ebench" .)
commit=$(git rev-parse HEAD 2>/dev/null ||
	find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16 | sed 's/^/tree-/')
exec "$out/e2ebench" -navserve "$out/navserve" -work "$out/work" -spans "$out/trace" \
	-commit "$commit" "$@"
