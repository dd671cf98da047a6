#!/usr/bin/env bash
# Builds the server and the end-to-end benchmark from this source checkout,
# then runs the benchmark with the given arguments, e.g.
#   bash bench/e2e/run.sh --workload ic-read --seed 1 --seconds 20 --trace 0
# Run from anywhere inside a full checkout (BENCHMARK.json, dune-project,
# bin/, lib/); build output goes to _build/, run files to .bench_run/, and
# nothing is written outside the checkout (the dune cache is off).
set -euo pipefail
cd "$(dirname "$0")/../.."
for need in dune-project bin/dune lib bench/e2e/dune; do
  if [ ! -e "$need" ]; then
    echo "bench/e2e/run.sh: $need missing: not a full source checkout" >&2
    exit 2
  fi
done
dune build --root . --cache=disabled bin/gsql_run.exe bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe --server ./_build/default/bin/gsql_run.exe "$@"
