#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload mix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache, the binary, span files
# and service state all live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -work-dir "$out" -commit "$commit" "$@"
