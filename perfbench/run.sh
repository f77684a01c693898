#!/usr/bin/env bash
# Builds lockdown, lockdownd, tracegen and the benchmark harness from the
# checkout it is run in, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload replay_cold --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache, the binaries, the per-run work directory and the
# span files of traced runs.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lockdown" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the root of a lockdown checkout (go.mod, cmd/ and perfbench/ must exist)" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
# Keep the toolchain's caches, config and temporary files inside the
# checkout, and never let it reach for a module proxy or a newer toolchain.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/lockdown ./cmd/lockdownd ./cmd/tracegen >&2
go build -C perfbench -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" -spans "$build/spans" "$@"
