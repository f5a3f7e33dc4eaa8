#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash benchmark/run.sh [flags]        (see benchmark/README.md)
#
# Every build product, Go cache and temporary file stays under .bench_build
# in the current directory, so a run reads and writes nothing outside the
# checkout it starts in. The build fails, and the script exits non-zero
# without printing a result, when the repository around benchmark/ is
# missing.
set -euo pipefail

work="$(pwd)/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOTMPDIR="$work/tmp" \
	TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd benchmark && go build -o "$work/benchmark" .) >&2
exec "$work/benchmark" "$@"
