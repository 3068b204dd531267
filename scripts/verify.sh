#!/usr/bin/env bash
# Tier-1 verification under hermetic conditions.
#
# Proves the workspace needs nothing from crates.io: tier-1 (build +
# tests) runs --offline against an EMPTY cargo home, and every manifest
# is grepped for registry (non-path) dependencies. Source invariants are
# linter rules, which tier-1 runs in tests/lint_clean.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

# 1. No registry dependencies in any manifest, the benchmark package's
#    (e2e/, built in stage 2b) included. Path/workspace deps use inline
#    tables ({ path = ... } / { workspace = true }); a registry dep is a
#    bare version string: `name = "1.2"`.
echo "==> checking manifests for registry dependencies"
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml e2e/Cargo.toml; do
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

# 2c. Benchmark digests. One seed-1 pass of every `e2e` workload must
#     exit 0 with its committed reports digest, so a library change
#     that moves a benchmark workload fails here before the benchmark
#     runs. `hier_scale1` is also the only paper-scale hier run (all ten
#     taxonomies at scale 1.0, NCBI's 2.19M nodes included); tier-1
#     runs hier at scale 0.1 only, so it is gated at a second seed too,
#     with other instances and other leaves.
echo "==> e2e reports digest gates (seed 1; hier_scale1 also seed 7)"
for gate in paper_grid:1:73b986488c6982f4 grid_faults_cached:1:82fc69e9208c342d \
    serve_mixed:1:65a1f3a412aa151d hier_scale1:1:40185887dc377cf5 \
    hier_scale1:7:5f4f339f80aef31c; do
    workload="${gate%%:*}"
    digest="${gate##*:}"
    seed="${gate#*:}"
    seed="${seed%%:*}"
    out="$(cargo run --release --offline --quiet --manifest-path e2e/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 1)"
    grep -q "\"reports_digest\":\"$digest\"" <<< "$out" || {
        echo "error: $workload seed $seed did not print reports_digest $digest:" >&2
        echo "$out" >&2
        exit 1
    }
done

# 5. Rustdoc: every intra-doc link resolves and no doc comment has
#    broken HTML, so `cargo doc` stays warning-free.
echo "==> building rustdoc with warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# 6. The paper ledger. `run_all` (the bench crate's one binary) runs
#    every experiment in-process at the default flags (seed 42, scale
#    1.0); its stdout must equal the committed ledger byte for byte, so
#    a change that moves any published number fails here until
#    `results/run_all.txt` is regenerated with it. The compare is a
#    tier-1 test (`crates/bench/tests/run_all.rs`, also run in stage 2);
#    on a mismatch it names the `==== name ====` section and the line
#    of the first difference.
echo "==> comparing run_all with the committed ledger"
cargo test -q --offline -p taxoglimpse-bench --test run_all default_run_matches_the_committed_ledger

echo "==> verify OK: hermetic tier-1 passed"
