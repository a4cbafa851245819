#!/usr/bin/env bash
# Build eagerdb and the serve benchmark from source, then run one
# benchmark invocation from the repository root:
#   bash servebench/run.sh --workload W --seed N --seconds S --trace 0|1
# The build log goes to stderr; stdout ends with the result JSON line.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/eagerdb.ml ]; then
  echo "servebench: not an eagerdb source tree (no dune-project or bin/eagerdb.ml)" >&2
  exit 2
fi
dune build --root . --cache=disabled ./bin/eagerdb.exe ./servebench/e2e.exe >&2
exec ./_build/default/servebench/e2e.exe run --server ./_build/default/bin/eagerdb.exe "$@"
