#!/usr/bin/env bash
# Tier-1 verification under hermetic conditions.
#
# Proves the workspace needs nothing from crates.io: tier-1 (build +
# tests) runs --offline against an EMPTY cargo home, and every manifest
# is grepped for registry (non-path) dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

# 1. No registry dependencies in any manifest. Path/workspace deps use
#    inline tables ({ path = ... } / { workspace = true }); a registry
#    dep is a bare version string: `name = "1.2"`.
echo "==> checking manifests for registry dependencies"
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    if awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
        in_deps && /^[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*"/ { print FILENAME ": " $0; found = 1 }
        END { exit found }
    ' "$manifest"; then
        :
    else
        bad=1
    fi
done
if [ "$bad" -ne 0 ]; then
    echo "error: registry (non-path) dependency found above" >&2
    exit 1
fi

# 2. Tier-1 offline against an empty registry cache. A fresh CARGO_HOME
#    has no .crate files, no index — if anything tried to resolve from
#    crates.io this fails immediately.
echo "==> running tier-1 offline with an empty CARGO_HOME"
EMPTY_CARGO_HOME="$(mktemp -d)"
trap 'rm -rf "$EMPTY_CARGO_HOME"' EXIT
export CARGO_HOME="$EMPTY_CARGO_HOME"

cargo build --release --offline
cargo test -q --offline

# 2b. The benchmark package (e2e/, its own workspace with path deps on
#     crates/*) links crate APIs that tier-1 never compiles; build and
#     test it here so removing one fails before the benchmark runs.
echo "==> building and testing the e2e benchmark package"
cargo test -q --offline --manifest-path e2e/Cargo.toml

# 3. Determinism & soundness lint. --check exits non-zero on any
#    unsuppressed finding; the JSON report is then re-parsed and
#    schema-validated by the linter itself (which uses the in-tree
#    crates/json parser), so the machine-readable side of the contract
#    is exercised on every run too.
echo "==> determinism & soundness lint (--check)"
LINT_OUT="$(mktemp)"
cargo run --release --offline -q -p taxoglimpse-lint -- \
    --workspace --check --json "$LINT_OUT"
cargo run --release --offline -q -p taxoglimpse-lint -- \
    --validate "$LINT_OUT"
rm -f "$LINT_OUT"

# 4. Interprocedural lint engine: exercise the schema-v2 surface the
#    way a consumer would. The workspace scan in stage 3 already ran
#    the new passes (D101/L001/L002/P001/S001 are part of --check);
#    here we additionally dump the call graph, check it is valid JSON
#    that names a known deep chain, validate a v2 report written fresh,
#    and require --explain to resolve every published rule id while
#    rejecting an unknown one with the usage exit code.
echo "==> interprocedural lint surface (--graph / --explain / schema v2)"
GRAPH_OUT="$(mktemp)"
LINT_OUT="$(mktemp)"
cargo run --release --offline -q -p taxoglimpse-lint -- \
    --workspace --check --graph "$GRAPH_OUT" --json "$LINT_OUT"
cargo run --release --offline -q -p taxoglimpse-lint -- \
    --validate "$LINT_OUT"
grep -q '"schema_version": 2' "$LINT_OUT" || {
    echo "error: lint report is not schema v2" >&2
    exit 1
}
grep -q 'core::resilience::ResilienceSession::call_impl' "$GRAPH_OUT" || {
    echo "error: call-graph dump is missing a known workspace chain" >&2
    exit 1
}
for rule in D001 D002 D003 C001 M001 U001 D101 L001 L002 P001 S001; do
    cargo run --release --offline -q -p taxoglimpse-lint -- \
        --explain "$rule" > /dev/null
done
if cargo run --release --offline -q -p taxoglimpse-lint -- \
    --explain Z999 > /dev/null 2>&1; then
    echo "error: --explain accepted an unknown rule id" >&2
    exit 1
fi
rm -f "$GRAPH_OUT" "$LINT_OUT"

# 5. The in-tree micro-benches (crates/bench/benches/*). `cargo test`
#    skips bench targets, so compile them here to keep them from rotting.
echo "==> compiling the micro-benches"
cargo bench --offline --no-run -p taxoglimpse-bench

echo "==> verify OK: hermetic tier-1 passed"
