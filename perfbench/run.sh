#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fig4|sweep|fleet|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Every build product, Go cache and profile
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/harness" || ! -f "$root/RESULTS.txt" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and RESULTS.txt are needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
