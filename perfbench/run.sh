#!/usr/bin/env bash
# Builds the DCLUE benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload oltp-local --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Everything the build and the runs leave
# behind goes under .bench_build/ (the Go build cache included), so the
# benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C perfbench build -o "$out/perfbench" .

# The commit stamp is best-effort: an exported tree is not a git repository.
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT

exec "$out/perfbench" -out "$out" -golden internal/experiments/testdata/fig06.golden "$@"
