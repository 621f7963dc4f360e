#!/usr/bin/env bash
# Build the benchmark and the server CLI from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selfcheck
#   bash perfbench/run.sh --expect        # regenerate perfbench/expected.txt
#
# Run from the repository root.  Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe ./bin/branch_align.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
