#!/usr/bin/env bash
# Builds the artifact benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload public-event --seed 42 --seconds 40 --trace 0
#   bash bench/run.sh -runs 5 -out bench/results/new.json
#   bash bench/run.sh compare A.json B.json
#
# The build cache, the binary and the toolchain's own config and temporary
# files live under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout, and the build never touches the network: the benchmark module
# needs only the standard library and the svrlab module one directory up.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$out/svrbench" .
exec "$out/svrbench" "$@"
