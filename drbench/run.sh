#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the root of the
# repository: bash drbench/run.sh --workload build|serve|heal
#   [--seed N] [--seconds S] [--trace 0|1]
# Build output goes to standard error; the benchmark's last line of
# standard output is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artifact inside the checkout (_build), with no
# shared dune cache
export DUNE_CACHE=disabled
if ! dune build --root . -j 2 ./drbench/main.exe 1>&2; then
  echo "drbench: build failed" >&2
  exit 1
fi
exec ./_build/default/drbench/main.exe "$@"
