#!/usr/bin/env bash
# Builds the benchmark from source and runs it from its own directory. The
# build cache and the binary stay inside the checkout, under bench/.build.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/.build/gocache" GOTOOLCHAIN=local
go build -o .build/bench .
exec .build/bench "$@"
