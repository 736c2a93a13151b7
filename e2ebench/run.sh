#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to stderr; the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f e2ebench/dune ]; then
  echo "e2ebench: run from the root of a full checkout (dune-project, lib/, e2ebench/)" >&2
  exit 2
fi

mkdir -p .e2ebench
# keep every build and run artifact inside the checkout
export DUNE_CACHE=disabled
export OCAML_RUNTIME_EVENTS_DIR="$PWD/.e2ebench"
dune build --root . --display quiet ./e2ebench/main.exe >&2
exec ./_build/default/e2ebench/main.exe "$@"
