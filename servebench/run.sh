#!/bin/sh
# Build the xseed server and the servebench program from this checkout, then
# run servebench with the given arguments, e.g.
#   sh servebench/run.sh --workload hot_batch --seed 1 --seconds 20 --trace 0
#   sh servebench/run.sh --self-check
# Build output goes to stderr so that the last line on stdout stays the
# JSON result line. Everything is built and written under .bench_build/;
# dune's shared cache outside the checkout is left alone.
set -eu
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
mkdir -p .bench_build
export DUNE_CACHE=disabled
build="$(pwd)/.bench_build/dune"
dune build --root . --build-dir "$build" ./bin/xseed.exe ./servebench/servebench.exe 1>&2
exec "$build/default/servebench/servebench.exe" \
  --xseed "$build/default/bin/xseed.exe" --work .bench_build/servebench "$@"
