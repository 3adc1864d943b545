#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it sits in
# and runs it. Run from the repository root:
#
#   bash spambench/run.sh --workload serve-paper --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the traced run's span files stay
# under .bench_build/ in the checkout. The build fails (non-zero exit, no
# result line) when the checkout holds only the benchmark.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters in the
# checkout too.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOENV=off \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/go-cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$root/spambench" && go build -o "$out/spambench" .)
exec "$out/spambench" "$@"
