#!/bin/sh
# Builds the end-to-end benchmark from source in the release profile and
# runs it. Run from the root of the repository; every argument goes to
# e2e.exe (see e2e.ml), for example
#
#   sh bench_e2e/run.sh --workload audio-fig6 --seed 1 --seconds 30 --trace 0
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench_e2e/run.sh: no dune-project and lib/ here; run it from the repository root" >&2
  exit 2
fi
# The compiler's temporary files and dune's caches stay in the checkout.
mkdir -p .bench_tmp
export TMPDIR="$PWD/.bench_tmp" XDG_CACHE_HOME="$PWD/.bench_tmp" DUNE_CACHE=disabled
# Build messages go to stderr: the last line of stdout is the result.
dune build --root . --profile release bench_e2e/e2e.exe 1>&2
exec ./_build/default/bench_e2e/e2e.exe "$@"
