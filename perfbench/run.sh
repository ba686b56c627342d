#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. From the repository
# root:
#   bash perfbench/run.sh --workload mixed-poisson --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare OLD_DIR NEW_DIR
# Build outputs, caches and results stay under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/bin/perfbench" .) >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
