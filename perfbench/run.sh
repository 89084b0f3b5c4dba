#!/usr/bin/env bash
# Builds the benchmark (and the mppmd daemon it drives) from source, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default perfbench/target).
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins >&2
exec "$target/release/perfbench" "$@"
