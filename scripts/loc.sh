#!/bin/sh
# Non-test line ledger: OCaml source lines (.ml + .mli) under lib/ and
# bin/ together, and under bench/ — the two figures ROADMAP.md tracks,
# so every change can state its net line delta.  Information only;
# nothing is gated on it.
#
#   scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

count() {
  find "$@" -type f \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + \
    | wc -l | tr -d ' '
}

echo "lib+bin  $(count lib bin)"
echo "bench    $(count bench)"
