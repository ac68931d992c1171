#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# bench/.build (Go build cache and temp files included, so a run touches
# nothing outside its checkout) and hands every argument to it.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p .build/tmp
export GOCACHE="$PWD/.build/gocache" GOTMPDIR="$PWD/.build/tmp"
go build -o .build/bench . >&2
exec .build/bench "$@"
