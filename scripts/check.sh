#!/bin/sh
# Tier-1 gate: the whole build, the whole test suite, an
# observability smoke run (compile + execute a bundled example with
# tracing, spans in every export format, metrics, and the
# cycle-attribution profile on, then make sure every emitted file is
# non-empty and the Chrome traces are trace_event files, plus a faulting
# --postmortem run whose post-mortem header must reach stderr), and the
# bench regression gate: the nine gated sections of bench/main.exe run in one
# process, hard-assert the claims their comments in bench/main.ml list,
# and diff the fresh snapshot against the committed BENCH.json (2%
# relative tolerance).  The bench runs from a release build: the host
# section asserts a wall-clock speedup of the pre-decoded engine over
# the reference interpreter, which only means anything with
# optimizations on (the cycle metrics are deterministic and
# profile-independent, so sharing the binary costs nothing).  The
# allocation-free tests also run from a release build of the suite, and
# a full-rate span run (2.7M spans, every exporter on) must finish
# under a 4 GB address-space limit.
#
# The snapshot refresh is atomic: the fresh snapshot goes to a temp
# directory and replaces BENCH.json only after every later step has
# passed too, so a failure anywhere leaves BENCH.json exactly as it was.
#
#   scripts/check.sh           # everything
#   scripts/check.sh --quick   # build + tests + smoke only: skips the
#                              # release build and the bench regression
#                              # gate (the slow half) for inner-loop
#                              # use; never touches BENCH.json
#
# Both modes end by printing the non-test line ledger (scripts/loc.sh),
# for information only.
#
# Exits non-zero on the first failure.  A regression-gate failure
# names the record, metric, baseline, and observed value on stderr; if
# the change is intentional, commit a refreshed BENCH.json
# (bench/main.exe <the nine sections> --json BENCH.json).
set -eu
cd "$(dirname "$0")/.."

quick=no
case "${1:-}" in
  --quick) quick=yes ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--quick]" >&2; exit 2 ;;
esac

# The parallel serving engine runs tenants on OCaml 5 domains; on an
# older compiler the build would die pages deep in Domain/Atomic
# errors, so fail fast with the actual requirement instead.
ocaml_ver=$(ocamlc -version 2>/dev/null || echo none)
case "$ocaml_ver" in
  [5-9].*) ;;
  *) echo "check.sh: OCaml >= 5.0 required for domain parallelism \
(ocamlc -version says: $ocaml_ver)" >&2
     exit 1 ;;
esac

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== per-suite test counts"
dune exec --no-build test/test_main.exe -- list --color=never 2>/dev/null \
  | awk '$2 ~ /^[0-9]+$/ { n[$1]++ } END { for (s in n) printf "  %-14s %d\n", s, n[s] }' \
  | sort

echo "== differential oracle (qp x batching x fault rate, incl. slow)"
# The fault-injection differential suite, with its full-matrix pinned
# seeds (registered `Slow`, so plain runtest skips them) forced on.
dune exec --no-build test/test_main.exe -- test differential -e > /dev/null

echo "== slow transform tests (factorize chunk boundaries)"
dune exec --no-build test/test_main.exe -- test transform -e > /dev/null

echo "== serving-layer suite (tenant-isolation matrix, incl. slow)"
# The tenant-isolation differential oracle over the full
# qp x batching x fault-rate matrix (registered Slow), plus the DRR /
# admission property tests and the load-generator determinism suite.
dune exec --no-build test/test_main.exe -- test serve -e > /dev/null

echo "== parallel-engine suite (domain matrix + perturbation stress, incl. slow)"
# The domain-parallel engine's differential battery — bit-identicality
# against the sequential scheduler across domain counts, the
# scheduler-perturbation stress matrix (registered Slow), and the
# barrier/mailbox/vclock property tests — forced on.
dune exec --no-build test/test_main.exe -- test par -e > /dev/null

echo "== smoke: cards run with --trace/--events/--spans/--metrics/--profile"
# One faulting listing1 configuration, run once per --spans format
# (.json Chrome trace, .jsonl, .folded); the first run also writes the
# Chrome event trace and the JSONL event log.  Every file must be
# non-empty and every .json output a Chrome trace_event document.
tmpdir=$(mktemp -d /tmp/cards-bench.XXXXXX)
smoke="$tmpdir/smoke"
mkdir "$smoke"
trap 'rm -rf "$tmpdir"' EXIT
for fmt in json jsonl folded; do
  extra=""
  if [ "$fmt" = json ]; then
    extra="--trace $smoke/trace.json --events $smoke/events.jsonl"
  fi
  # $extra is intentionally unquoted: it is empty or several words.
  dune exec --no-build bin/cards_cli.exe -- run examples/minic/listing1.mc \
    --policy all-remotable --local 1M --remotable 256K \
    --spans "$smoke/spans.$fmt" $extra --metrics --profile > /dev/null
done
for f in trace.json events.jsonl spans.json spans.jsonl spans.folded; do
  test -s "$smoke/$f" || { echo "check.sh: empty $f from the smoke run" >&2; exit 1; }
done
for f in trace.json spans.json; do
  grep -q traceEvents "$smoke/$f" || {
    echo "check.sh: $f is not a Chrome trace_event file" >&2; exit 1; }
done

echo "== smoke: --postmortem on a faulting run that escalates"
# At fault rate 0.1 with one retry, listing1 under 64K local memory
# escalates a fetch to the reliable channel, which dumps the post-mortem
# of the span collector to stderr.
dune exec --no-build bin/cards_cli.exe -- run examples/minic/listing1.mc \
  --local 64K --remotable 16K --fault-rate 0.1 --retry-max 1 --postmortem \
  > /dev/null 2> "$smoke/postmortem.txt"
grep -q "spans recorded, .* flagged" "$smoke/postmortem.txt" || {
  echo "check.sh: no post-mortem header on stderr" >&2; exit 1; }

if [ "$quick" = yes ]; then
  echo "== non-test line ledger (information only)"
  scripts/loc.sh
  echo "== check.sh: quick pass green (bench gates skipped)"
  exit 0
fi

echo "== dune build (release, for the bench gate and the full-rate span run)"
dune build --profile release bench/main.exe bin/cards_cli.exe

echo "== bench: regression gate (BENCH.json, 2% tolerance)"
_build/default/bench/main.exe fabric attr faults spans whatif layout host serve par \
  --json "$tmpdir/BENCH.json" --compare BENCH.json --tolerance 0.02 > /dev/null
test -s "$tmpdir/BENCH.json" || {
  echo "check.sh: empty BENCH.json from the bench gate" >&2; exit 1; }

echo "== full-rate spans of a 7M-instruction run stream within 4 GB"
# fig9_list at 64K local memory records 2.7M spans at rate 1.0; every
# exporter streams them to its file, so the run fits under a 4 GB
# address-space limit (a suffix-less --spans path is a Chrome trace).
(
  ulimit -v 4000000
  _build/default/bin/cards_cli.exe run examples/minic/fig9_list.mc \
    --local 64K --remotable 16K --fault-rate 0 --retry-max 1 \
    --span-rate 1.0 --spans /dev/null --events /dev/null --trace /dev/null \
    --postmortem > /dev/null 2>&1
) || { echo "check.sh: full-rate span export failed under ulimit -v 4000000" >&2
       exit 1; }

echo "== full suite at both ends of the domain matrix"
# The whole test binary twice, with the par differential tests pinned
# to one domain count per pass: serving results must not depend on the
# pool size anywhere in the suite, not just inside the par section.
CARDS_TEST_DOMAINS=1 dune exec --no-build test/test_main.exe > /dev/null
CARDS_TEST_DOMAINS=4 dune exec --no-build test/test_main.exe > /dev/null

echo "== allocation tests from a release build"
# The zero-allocation tests pass under dune runtest's dev build, which
# compiles every module -opaque (no cross-module inlining); the release
# profile inlines differently, so they must hold there too.  Every
# test named "... allocation-free" runs from a release test binary.
dune build --profile release test/test_main.exe
alloc_tests=$(_build/default/test/test_main.exe list --color=never 2>/dev/null \
  | awk '/ allocation-free\.$/ { print $1 ":" $2 }')
test "$(echo "$alloc_tests" | wc -w)" -ge 3 || {
  echo "check.sh: expected 3 or more allocation-free tests: $alloc_tests" >&2
  exit 1; }
for t in $alloc_tests; do
  _build/default/test/test_main.exe test "${t%%:*}" "${t##*:}" > /dev/null || {
    echo "check.sh: release build fails allocation test $t" >&2; exit 1; }
done

# Everything is green: only now does the fresh snapshot replace the
# committed one.
mv "$tmpdir/BENCH.json" BENCH.json
echo "== non-test line ledger (information only)"
scripts/loc.sh
echo "== check.sh: all green (refreshed BENCH.json)"
