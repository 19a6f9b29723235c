#!/usr/bin/env bash
# Full verification: tier-1 build + tests, rustfmt + clippy (both
# toolchain-guarded), xlint --deny (workspace invariants), rustdoc build,
# doc-tests, and a `cargo check` of the frozen benchmark (`xbench/`)
# against the workspace crates.  The serving smoke against the real
# `xinsight-serve` binary runs inside `cargo test`
# (crates/service/tests/serve_binary.rs).
#
#   ./scripts/verify.sh          # everything
#   ./scripts/verify.sh --quick  # tier-1 only (build + tests)
#
# The rustdoc steps keep the doc examples in crates/core/src/lib.rs (and
# every other crate's API docs) compiling; `#![warn(missing_docs)]` crates
# are built with warnings denied so public items stay documented.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if [[ "${1:-}" == "--quick" ]]; then
    echo "==> quick mode: skipping doc build + doc-tests"
    exit 0
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "==> cargo fmt unavailable in this toolchain: skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable in this toolchain: skipping"
fi

echo "==> xlint --deny (workspace invariants: see xlint.toml)"
# Lock-order, hot-path allocation, panic-path, Relaxed-justification,
# SAFETY-comment and endpoint-inventory checks; any finding fails the run.
cargo run -q -p xlint --release -- --deny

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --doc"
cargo test -q --doc --workspace

echo "==> cargo check xbench (the frozen benchmark compiles against these crates)"
# The target dir lives outside the tree so the checkout stays clean, and
# the frozen lock file is restored afterwards: an offline build appends
# dependencies the lock predates (fxhash) to it.
xbench_lock="$(mktemp)"
cp xbench/Cargo.lock "$xbench_lock"
restore_xbench_lock() { cp "$xbench_lock" xbench/Cargo.lock && rm -f "$xbench_lock"; }
trap restore_xbench_lock EXIT
CARGO_TARGET_DIR="${XBENCH_TARGET_DIR:-${TMPDIR:-/tmp}/xinsight-xbench-target}" \
    cargo check -q --offline --manifest-path xbench/Cargo.toml

echo "==> OK"
