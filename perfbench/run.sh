#!/usr/bin/env bash
# Builds murphyd and the benchmark from the checkout it is run in, then runs
# the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hotel-triage --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/murphyd" ]; then
	echo "perfbench: run from the murphy repository root (no go.mod or cmd/murphyd here)" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
export GOMODCACHE="$out/gopath/pkg/mod"
go build -o "$out/murphyd" ./cmd/murphyd >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
PERFBENCH_SOURCE_SHA256=$(find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	\( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_COMMIT PERFBENCH_SOURCE_SHA256
exec "$out/perfbench" -murphyd "$out/murphyd" -workdir "$out" "$@"
