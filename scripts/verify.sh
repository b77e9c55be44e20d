#!/usr/bin/env bash
# Repository verification: tier-1 build+test, formatting, and the kernel
# micro-bench (emits BENCH_kernels.json in the repo root).
#
# Usage: scripts/verify.sh [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=1
for arg in "$@"; do
    case "$arg" in
    --no-bench) run_bench=0 ;;
    *)
        echo "unknown argument: $arg" >&2
        echo "usage: scripts/verify.sh [--no-bench]" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> bitwise kernel + distributed parity (release): portable vs AVX GEMM kernels vs naive loops, any pool size; distributed == single-process training"
cargo test --release -q -p vela-tensor
cargo test --release -q --test parity

echo "==> exchange parity (release): closed-form per-batch ledger + {channel, tcp-threads, tcp} bitwise identical, single-owner + degree-1 + replicated arms"
cargo test --release -q --test transport_parity

echo "==> replication gate (release): degree-1 bitwise identity + loss-for-loss replicated training"
cargo test --release -q --test replication

echo "==> migration/overlap parity grid (release): background shadow-install cutover bitwise identical to stop-the-world sync on {channel, tcp-threads, tcp}, incl. replicated arm"
cargo test --release -q --test migration

echo "==> int8 wire accuracy gate (release): quantized loss curve tracks exact"
cargo test --release -q --test quant_accuracy

echo "==> end-to-end benchmark: build + self-tests (it reads RealRuntime frame/wire stats and runtime.pipeline.* counters)"
cargo build --release --offline --manifest-path e2e_bench/Cargo.toml
cargo test --offline -q --manifest-path e2e_bench/Cargo.toml

echo "==> trace smoke: quickstart under VELA_TRACE=jsonl + trace_summary --check"
trace_out=target/quickstart-trace.jsonl
rm -f "$trace_out"
VELA_TRACE=jsonl VELA_TRACE_OUT="$trace_out" \
    cargo run --release -p vela --example quickstart >/dev/null
cargo run --release -p vela-bench --bin trace_summary -- --check "$trace_out"

echo "==> multi-process smoke: master + worker processes over TCP loopback"
cargo run --release -p vela --example tcp_smoke

echo "==> distributed trace gate: traced tcp quickstart, merge, --check"
tcp_trace=target/tcp-quickstart-trace.jsonl
rm -f "$tcp_trace" "$tcp_trace".worker* "$tcp_trace".merged*
VELA_TRANSPORT=tcp VELA_TRACE=jsonl VELA_TRACE_OUT="$tcp_trace" \
    cargo run --release -p vela --example quickstart >/dev/null
# Each unmerged per-process trace holds only its own half of every
# dispatch->compute->result flow chain, so --check must REJECT it:
# passing here means the flow-endpoint validation is broken.
if cargo run --release -p vela-bench --bin trace_summary -- --check "$tcp_trace" >/dev/null 2>&1; then
    echo "FAIL: unmerged master trace must not pass trace_summary --check" >&2
    exit 1
fi
for worker_trace in "$tcp_trace".worker*; do
    if cargo run --release -p vela-bench --bin trace_summary -- --check "$worker_trace" >/dev/null 2>&1; then
        echo "FAIL: unmerged worker trace must not pass trace_summary --check" >&2
        exit 1
    fi
done
# The merged trace rebases worker clocks onto the master timeline and
# completes every flow chain; --check also gates attribution coverage.
cargo run --release -p vela-bench --bin trace_summary -- merge "$tcp_trace"
cargo run --release -p vela-bench --bin trace_summary -- --check "$tcp_trace".merged

if [ "$run_bench" = 1 ]; then
    echo "==> bench smoke: serial regression gate vs committed BENCH_kernels.json"
    cargo run --release -p vela-bench --bin bench_kernels -- --quick --check BENCH_kernels.json

    echo "==> transport bench check: one frame per worker per block-pass + ledger invariants + int8 dispatch gate + replication straggler gate + migration overlap gate (>=50% of sync blocking hidden at equal ledger bytes)"
    # Needs target/release/vela_worker for the tcp rows; the tier-1 build
    # above produced it.
    cargo run --release -p vela-bench --bin bench_transport -- --quick --check BENCH_transport.json

    echo "==> kernel micro-bench (BENCH_kernels.json)"
    cargo run --release -p vela-bench --bin bench_kernels
fi

echo "==> verify OK"
