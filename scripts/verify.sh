#!/usr/bin/env bash
# Full verification: tier-1 build + tests, rustfmt + clippy (both
# toolchain-guarded), xlint --deny (workspace invariants), rustdoc build,
# doc-tests, and the serving smoke test.
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

echo "==> serving smoke test (xinsight-serve + loadgen)"
# Start the server on a loopback port with a freshly fitted + saved SYN-A
# bundle and drive it with the loadgen smoke client, which checks only what
# the real binary shows (the integration suites under tests/ cover the
# rest): it gates on GET /healthz (polling the liveness endpoint instead of
# sleeping), asserts one /explain and one /v2/explain with top_k=1, pushes
# a /metrics scrape through the Prometheus text exposition validator,
# grows the store past --compact-after 3 and asserts from /metrics that the
# background compactor folded it with the answer byte-for-byte intact,
# sends a deliberately slow request (POST /debug/sleep past
# --trace-slow-ms) that must land in the /debug/traces slow reservoir, and
# ends with a graceful shutdown over the wire; finally assert the server
# process exits cleanly (status 0).
SMOKE_DIR="$(mktemp -d)"
cleanup_smoke() {
    [[ -n "${SERVE_PID:-}" ]] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$SMOKE_DIR"
}
trap cleanup_smoke EXIT
./target/release/xinsight-serve \
    --demo syn_a --models "$SMOKE_DIR/models" --addr 127.0.0.1:0 --workers 2 \
    --compact-after 3 --debug-endpoints --trace-slow-ms 100 \
    > "$SMOKE_DIR/serve.log" 2> "$SMOKE_DIR/serve.err" &
SERVE_PID=$!
# The only thing the log tail is needed for is the bound address (port 0);
# readiness itself is the smoke client's /healthz poll.
for _ in $(seq 1 150); do
    grep -q "listening on" "$SMOKE_DIR/serve.log" 2>/dev/null && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "xinsight-serve exited before listening:" >&2
        cat "$SMOKE_DIR/serve.err" >&2
        exit 1
    fi
    sleep 0.2
done
SERVE_ADDR="$(sed -n 's#.*listening on http://##p' "$SMOKE_DIR/serve.log")"
[[ -n "$SERVE_ADDR" ]] || { echo "no listening banner" >&2; exit 1; }
./target/release/loadgen --smoke --addr "$SERVE_ADDR"
wait "$SERVE_PID"   # graceful shutdown => exit 0 (set -e enforces it)
SERVE_PID=""
grep -q "shut down cleanly" "$SMOKE_DIR/serve.log"
echo "==> serving smoke test OK"

echo "==> open-loop smoke test (loadgen --spawn --open-loop-smoke)"
# Open-loop load generation against a spawned in-process server: a
# modest-rate Poisson run that must finish with zero errors and zero shed
# 503s, then a deterministic overload burst at 2x capacity (via
# POST /debug/sleep on a small admission queue) that must shed at least
# one 503 without a single hard failure, then a graceful shutdown (exit 0,
# set -e enforces it).
./target/release/loadgen --spawn --open-loop-smoke --demo syn_a
echo "==> open-loop smoke test OK"

echo "==> OK"
