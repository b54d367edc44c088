#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through (see perfbench/README.md). Run it from the root
# of the checkout. The Go build cache, temporary files and the binary stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and
# nothing is fetched: the module has no dependencies outside the
# repository.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
