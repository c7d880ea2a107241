#!/usr/bin/env bash
# Build mdbench from this checkout and run it with the given arguments, e.g.
#   bash mdbench/run.sh --workload fig2-build --seed 42 --seconds 12 --trace 0
# Run from the root of the repository. Build output goes to stderr, so the
# last line of stdout is mdbench's own.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f mdbench/dune ]; then
  echo "mdbench/run.sh: run from the root of an mdweave checkout" >&2
  exit 2
fi

# --root keeps dune from adopting a dune-project above this directory, and
# the disabled cache keeps every build artifact inside the checkout.
DUNE_CACHE=disabled dune build --root . ./mdbench/mdbench.exe 1>&2
exec ./_build/default/mdbench/mdbench.exe "$@"
