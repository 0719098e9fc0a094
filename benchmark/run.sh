#!/usr/bin/env bash
# Builds the release `epq` binary and the benchmark harness from source,
# then runs the harness with the given arguments:
#
#   bash benchmark/run.sh --workload <prepare_mix|batch_dp|stream_skewed|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the
# repository root); generated inputs and reports go to .bench_out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin epq >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
commit=unknown
if [ -e .git ]; then
    commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
# The harness runs as a child, not through exec: its peak-RSS figure
# reads the resource usage of its own children, which must be the epq
# processes alone, not the cargo builds above.
EPQ_BIN="$CARGO_TARGET_DIR/release/epq" EPQ_BENCH_COMMIT="$commit" \
    "$CARGO_TARGET_DIR/release/epq-e2e-bench" "$@"
