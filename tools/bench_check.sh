#!/bin/sh
# Performance-regression gate: re-measure the packet fast path and the
# event-core scale workloads in smoke mode and compare against the
# committed baseline BENCH_PERF.json.
#
# Only machine-independent quantities are gated:
#   - minor words allocated per packet (tolerance +25% plus a small
#     absolute slack),
#   - minor words allocated per simulation event in the scale workloads
#     (tolerance +25% plus two words; the link workloads sit at ~0, so
#     this is effectively "the event core stays allocation-free"),
#   - the event queue's work per event in the same workloads: entries
#     walked past by sorted bucket inserts and inserts sent to the
#     overflow heap (tolerance +25% plus 0.05 per event; the counts
#     repeat exactly run to run, and the committed ones are 0), and
#   - the same-run jit-vs-interp throughput ratio on the audio ASP (>= 2x),
#   - the same-run par4-vs-sequential events/s ratio on the 1000-flow
#     mesh (>= 2x; skipped with a message on hosts with fewer than 4
#     cores, where four domains cannot beat one engine),
#   - the fault-matrix cell counts (frames/replies/streams under the
#     baseline/lossy/flappy/churn scenarios; the simulation and the fault
#     plane are both seeded, so the counts are deterministic and gated
#     +-25% in both directions) plus the adaptation-shape assertions, and
#   - the closed-loop adaptation cells (adaptive vs static goodput under
#     the same four scenario names; adaptive must beat static in every
#     fault cell and tie exactly, with zero swaps, on the healthy one),
#     and
#   - the multi-node fleet-churn cell (a 2-gateway fleet under the
#     server crash: the coordinated plane's goodput must strictly beat
#     both the static fleet and one independent plane per gateway —
#     the per-node planes watch only their own clients' retry slice, so
#     partial failover is the best they manage).
# Absolute packets/sec and events/sec are recorded in the baseline for
# reference but never compared across machines.
#
# The release profile matters: the dev profile passes -opaque, which
# disables the cross-module inlining the allocation-free fast path
# depends on (and the committed baseline was measured with).
#
# Run from the repository root: sh tools/bench_check.sh

set -eu

cd "$(dirname "$0")/.."

if [ ! -f BENCH_PERF.json ]; then
    echo "bench_check: BENCH_PERF.json baseline missing" >&2
    exit 1
fi

# This script measures in --smoke mode, so the committed baseline must
# have been written in --smoke mode too; a full-mode baseline gates
# nothing real (the binary double-checks, but fail early and clearly).
if ! grep -q '"smoke": true' BENCH_PERF.json; then
    echo "bench_check: BENCH_PERF.json was not written with --smoke;" >&2
    echo "regenerate: dune exec --profile release bench/main.exe -- perf scale faults adapt par --smoke --perf-out BENCH_PERF.json" >&2
    exit 1
fi

exec dune exec --profile release bench/main.exe -- perf scale faults adapt par --smoke --check BENCH_PERF.json
