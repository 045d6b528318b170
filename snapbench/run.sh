#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through:
#   bash snapbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr so the result stays the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./snapbench/main.exe 1>&2
exec ./_build/default/snapbench/main.exe "$@"
