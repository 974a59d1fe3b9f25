#!/usr/bin/env bash
# Build the benchmark from source (release profile) and run one workload.
#
#   bash perfbench/run.sh --workload compile|chase|scan|serve \
#        --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays inside the checkout: dune's
# shared cache is turned off, the build goes to _build/, and traced
# runs write their spans to .perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f lib/core/pipeline.ml ]; then
  echo "perfbench: not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --profile release ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
