#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash benchmark/run.sh --workload fig5-full --seed 1 --seconds 30 --trace 0
# Every build and temporary file stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build), and nothing is fetched.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/benchmark" && go build -o "$out/tmbenchmark" .)
exec "$out/tmbenchmark" "$@"
