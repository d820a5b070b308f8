#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash wallbench/run.sh --workload corpus_scan --seed 1 --seconds 12 --trace 0
#
# The build cache, the binary and every temporary file stay under
# .bench_build/ in the current directory; nothing is fetched from the
# network. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

(cd "$here" && go build -trimpath -o "$out/wallbench" .)
exec "$out/wallbench" "$@"
