#!/usr/bin/env bash
# The repo's one benchmark command. Builds the benchmark package with the
# same --release profile tier-1 uses, then runs it:
#
#   bench/run.sh [--workload W|all] [--seed N] [--traffic-seed N] [--seconds S]
#                [--trace 0|1 | --traced] [--quick] [--out DIR]
#   bench/run.sh compare PARENT_DIR CHANGE_DIR
#   bench/run.sh collect DIR OUT.json
#
# Without --workload every workload runs, each in a fresh process. The last
# line of a single-workload run's stdout is its JSON result; the exit code is
# nonzero when the build or the correctness gate fails. See bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# Share the root workspace's target directory unless the caller chose one
# (a relative choice is relative to the repo root, where we now are).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export PQ_BENCH_DIR="$here"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/pq-e2e-bench" "$@"
