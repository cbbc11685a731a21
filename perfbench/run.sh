#!/usr/bin/env bash
# Builds perfbench and webiq-serve from the tree under test, then runs
# perfbench with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write (Go build cache, binaries,
# snapshot files) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/webiq-serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the root of a webiq checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/webiq-serve" ./cmd/webiq-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -work "$out" -serve-bin "$out/bin/webiq-serve" "$@"
