#!/usr/bin/env bash
# Builds the benchmark (and the xinsight-serve binary it drives) from
# source, then runs it with the given arguments.  Run from the repository
# root:  bash xbench/run.sh --workload explain_hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-xbench/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path xbench/Cargo.toml >&2
exec "$target/release/xbench" "$@"
