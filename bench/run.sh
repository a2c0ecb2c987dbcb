#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it. Everything the Go
# toolchain writes (build cache, module cache, telemetry, temp files) is
# pinned under .bench_build/ in the checkout, so a run reads and writes
# nothing outside it. In a directory without the repo's go.mod the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/lnvm-perfbench" .)
cd "$root"
exec "$out/lnvm-perfbench" "$@"
