#!/usr/bin/env bash
# Builds the repository's `vela_worker` and this benchmark from source in
# release mode, then runs one benchmark invocation with every argument
# passed through, e.g.
#
#   bash e2e_bench/run.sh --workload steady-b8-channel --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output lands in $CARGO_TARGET_DIR
# (default .bench_build); both binaries land in the same directory, which
# is where the runtime looks for `vela_worker` when it spawns workers.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p vela-runtime --bin vela_worker >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/vela_e2e" "$@"
