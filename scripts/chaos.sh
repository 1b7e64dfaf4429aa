#!/usr/bin/env bash
# Seed-replayable chaos suite (DESIGN.md §8).
#
#   scripts/chaos.sh             # the full 32-seed CI sweep
#   scripts/chaos.sh 4000029     # replay one seed (the repro line a
#                                # failing sweep prints)
#   scripts/chaos.sh 1 2 3       # any ad-hoc seed list
#
# Every seed runs the scenario twice and asserts identical event-trace
# digests, so a failure seen here is reproducible bit-for-bit from the
# printed seed.

set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)" --target chaos_test

args=()
for seed in "$@"; do
  args+=("--seed=${seed}")
done

exec ./build/tests/chaos_test "${args[@]+"${args[@]}"}"
