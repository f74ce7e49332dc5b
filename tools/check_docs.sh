#!/bin/sh
# Documentation checks:
#   1. every lib/* subtree is listed in README.md's architecture map;
#   2. every netsim.faults.* metric named in the docs is actually
#      registered by lib/netsim/faults.ml (docs cannot invent metrics);
#   3. every adapt.* metric named in the docs is registered by
#      lib/adapt/*.ml (same contract for the adaptation plane);
#   4. every netsim.par.* metric named in the docs is registered by
#      lib/netsim/par_engine.ml (same contract for the parallel driver);
#   5. the odoc docs build cleanly (skipped when odoc is not installed,
#      as in the minimal CI image).
# Run from the repository root: sh tools/check_docs.sh

set -eu

cd "$(dirname "$0")/.."

status=0

for dir in lib/*/; do
    name="lib/${dir#lib/}"
    name="${name%/}"
    if ! grep -q "\`$name\`" README.md; then
        echo "check_docs: $name is missing from README.md's architecture map" >&2
        status=1
    fi
done

# Every faults metric the docs mention must exist in the registry code.
# Abbreviated spellings like `.corrupted_packets` (sharing the family
# prefix of the name before them) are expanded by taking the suffix.
for metric in $(grep -ho 'netsim\.faults\.[a-z_]*' doc/*.md README.md | sort -u); do
    suffix="${metric#netsim.faults.}"
    if ! grep -q "\"netsim\.faults\.$suffix\"" lib/netsim/faults.ml; then
        echo "check_docs: docs name $metric but lib/netsim/faults.ml does not register it" >&2
        status=1
    fi
done
for metric in $(grep -h 'netsim\.faults\.' doc/*.md README.md \
                | grep -o '`\.[a-z_]*`' | tr -d '`.' | sort -u); do
    if ! grep -q "\"netsim\.faults\.$metric\"" lib/netsim/faults.ml; then
        echo "check_docs: docs name a faults metric .$metric that lib/netsim/faults.ml does not register" >&2
        status=1
    fi
done

# Same contract for the adaptation plane. The docs use full metric
# names only (adapt.monitor.ticks, never `.ticks`), so no
# abbreviation expansion is needed; file mentions like test_adapt.ml
# are filtered out.
for metric in $(grep -ho 'adapt\.[a-z_.]*[a-z_]' doc/*.md README.md \
                | grep -v '\.ml$' | sort -u); do
    if ! grep -qF "\"$metric\"" lib/adapt/*.ml; then
        echo "check_docs: docs name $metric but lib/adapt/*.ml does not register it" >&2
        status=1
    fi
done

# Same contract for the partitioned driver's execution-plane counters,
# with the same abbreviation expansion as the faults family.
for metric in $(grep -ho 'netsim\.par\.[a-z_][a-z_]*' doc/*.md README.md | sort -u); do
    suffix="${metric#netsim.par.}"
    if ! grep -q "\"netsim\.par\.$suffix\"" lib/netsim/par_engine.ml; then
        echo "check_docs: docs name $metric but lib/netsim/par_engine.ml does not register it" >&2
        status=1
    fi
done
for metric in $(grep -h 'netsim\.par\.' doc/*.md README.md \
                | grep -o '`\.[a-z_]*`' | tr -d '`.' | sort -u); do
    if ! grep -q "\"netsim\.par\.$metric\"" lib/netsim/par_engine.ml; then
        echo "check_docs: docs name a par metric .$metric that lib/netsim/par_engine.ml does not register" >&2
        status=1
    fi
done

if command -v odoc >/dev/null 2>&1; then
    if ! dune build @doc; then
        echo "check_docs: dune build @doc failed" >&2
        status=1
    fi
else
    echo "check_docs: odoc not installed, skipping dune build @doc"
fi

if [ "$status" -eq 0 ]; then
    echo "check_docs: OK"
fi
exit "$status"
