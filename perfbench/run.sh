#!/bin/sh
# Build the benchmark from source (first run: the whole simulator,
# about a minute) and run it with the given arguments.  Run from the
# root of the repository:
#
#   sh perfbench/run.sh --workload fuzz-x86 --seed 23 --seconds 20 --trace 0
#
# The build goes to _build/ in this checkout, bypasses dune's shared
# cache and keeps the compiler's temporary files under _build/, so
# nothing is written outside the checkout.
mkdir -p _build/tmp
TMPDIR="$PWD/_build/tmp" exec dune exec --root . --cache=disabled --display=quiet --no-print-directory \
  -- ./perfbench/perfbench.exe "$@"
