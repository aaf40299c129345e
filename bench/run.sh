#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through. The build, the Go caches and everything
# the benchmark writes stay under the build directory inside the checkout
# ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -buildvcs=false -o "$out/pckpt-bench" .)
exec "$out/pckpt-bench" -workdir "$out" "$@"
