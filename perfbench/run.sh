#!/usr/bin/env bash
# Builds tibfit-serve and the benchmark from this checkout, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/tibfit-serve" ./cmd/tibfit-serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -serve-bin "$out/tibfit-serve" -root "$root" -out "$out" "$@"
