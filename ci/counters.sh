#!/bin/sh
# Regenerates ci/counters/<workload>.txt: the deterministic work counters
# (flushes, revaluations, envelope checks, events, ...) that perfbench prints
# for each workload at seed 1. A change that leaves the program's work
# unchanged leaves these files unchanged; CI reruns this script and fails on
# any difference. Run from anywhere: sh ci/counters.sh
set -eu
cd "$(dirname "$0")/.."
for workload in two-year stress-matrix book-100k; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 --trace 0 >"ci/counters/$workload.out"
    grep '^counter ' "ci/counters/$workload.out" >"ci/counters/$workload.txt"
    rm "ci/counters/$workload.out"
done
