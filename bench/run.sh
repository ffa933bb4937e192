#!/bin/sh
# The benchmark driver's entry point: build bench/ from source inside the
# checkout — Go's build cache included, so nothing is written outside it —
# and run it with the driver's arguments. Run from the repository root.
set -eu
mkdir -p .bench_build
GOCACHE="$PWD/.bench_build/gocache" go build -o .bench_build/hhbench ./bench
exec .bench_build/hhbench "$@"
