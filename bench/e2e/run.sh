#!/bin/sh
# Builds the benchmark from source, then runs it with the given arguments,
# e.g. sh bench/e2e/run.sh run --seed 42 (see README.md). Run it from the
# repository root. Build output goes to stderr, so the last line of stdout
# stays the result.
set -e
dune build --root . --cache=disabled --display=quiet ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
