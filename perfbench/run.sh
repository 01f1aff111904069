#!/usr/bin/env bash
# run.sh builds the controller benchmark from source and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and cache file goes under
# .bench_build/ in the current directory, so nothing outside the checkout
# is read or written and no network access is needed.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"

(cd "$here" && go build -o "$out/perfbench" .)

commit=unknown
if [ -d "$root/.git" ]; then
    commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -commit "$commit" "$@"
