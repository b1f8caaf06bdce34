#!/usr/bin/env bash
# The builder's driver entry point (BENCHMARK.json `command`): builds the
# harness (`rlscope-bench`'s auto-discovered `e2e` bin) and the real
# `rlscoped` from source into one target directory, then runs one
# workload. Run from the root of a checkout:
#
#   bash crates/bench/src/bin/e2e/bench.sh --workload <name> --seed <n> \
#        --seconds <s> --trace <0|1>
#
# In a directory that holds only the benchmark's own files there is no
# workspace to build, and this script fails without printing a result.
set -euo pipefail

if [ ! -f Cargo.toml ]; then
    echo "bench.sh: no Cargo.toml here: run from the root of a checkout" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet \
    -p rlscope-bench --bin e2e -p rlscope-collector --bin rlscoped 1>&2

exec "$CARGO_TARGET_DIR/release/e2e" run "$@"
