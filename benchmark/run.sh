#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the harness (release, AVX2
# kernels with runtime detection) and passes every argument through:
#
#   benchmark/run.sh                        all workloads, untraced then traced -> benchmark/out/latest.json
#   benchmark/run.sh --smoke                the same at a twentieth of the length, checks on, not comparable
#   benchmark/run.sh --traced               only the per-layer pass
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one run; the last stdout line is its JSON result
#   benchmark/run.sh --compare A.json B.json
#
# See benchmark/README.md for what is measured and why.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A caller's CARGO_TARGET_DIR (absolute, or relative to where it called
# from) is honoured; by default the build stays inside benchmark/.
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr so that stdout carries only results.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --features simd --manifest-path "$here/Cargo.toml" >&2

# AXONN_* variables are scrubbed by the binary itself, before it starts a
# thread, so the program runs at the defaults its users get.
exec "$target/release/axonn-benchmark" --out-dir "$here/out" "$@"
