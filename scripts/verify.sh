#!/usr/bin/env bash
# Full verify flow: formatting, lints, build, tests (benchmark included),
# perf snapshots.
#
# Usage: scripts/verify.sh [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== cargo test"
cargo test --offline --workspace -q

echo "== scheduler property tests (release: steal races at full speed)"
cargo test --offline -q --release -p mixedp-runtime

echo "== fault-injection recovery tests (release, multiple seeds)"
FAULT_SEEDS="1,7,42,20260807,987654321" \
    cargo test --offline -q --release -p mixedp-core --test fault_recovery

echo "== packed-wire property tests (release)"
cargo test --offline -q --release -p mixedp-core --test wire_roundtrip
cargo test --offline -q --release -p mixedp-core wire::

echo "== F16C fast paths and lane-wide kernels (release: full 2^32 conversion sweep, bit-identity proptests up to k = KC)"
cargo test --offline -q --release -p mixedp-kernels --test f16c_conversions -- --include-ignored
cargo test --offline -q --release -p mixedp-kernels --test prop_f16c
cargo test --offline -q --release -p mixedp-kernels --test prop_kernels

echo "== end-to-end benchmark (perfbench): build against the library API, helper tests"
cargo test --offline -q --release --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench -p 'test_*.py'

if [[ "${1:-}" != "--no-bench" ]]; then
    echo "== kernel perf snapshot (BENCH_kernels.json)"
    cargo run --offline --release -p mixedp-bench --bin bench_kernels
    echo "== scheduler perf snapshot (BENCH_scheduler.json, quick)"
    cargo run --offline --release -p mixedp-bench --bin bench_scheduler -- --quick
    echo "== wire data-motion snapshot (BENCH_wire.json)"
    cargo run --offline --release -p mixedp-bench --bin bench_wire -- --reps=3
    echo "== telemetry smoke (chrome trace + run report + <2% overhead gate)"
    cargo run --offline --release -p mixedp-bench --bin telemetry_smoke
fi

echo "verify: OK"
