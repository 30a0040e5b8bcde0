#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, forwarding every argument. The Go build cache, temporary
# files and the binary stay under the build directory: $CARGO_TARGET_DIR
# when set, else .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
