#!/usr/bin/env bash
# Builds cmd/prfserve and the prfbench program from the checkout in the
# current directory, then runs prfbench with the given arguments:
#
#   bash prfbench/run.sh --workload cold-mixed --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build/
# in the checkout. Outside a full checkout (no go.mod next to prfbench/)
# the build fails and the script exits non-zero without a result line.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
go build -o "$out/prfserve" ./cmd/prfserve >&2
(cd prfbench && go build -o "$out/prfbench" .) >&2
exec "$out/prfbench" -prfserve "$out/prfserve" -workdir "$out" "$@"
