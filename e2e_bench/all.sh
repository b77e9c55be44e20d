#!/usr/bin/env bash
# Runs every workload once untraced and once traced, printing each report
# (end-to-end metrics, then per-layer metrics). Stops at the first run
# that fails. Run from the repository root:
#
#   bash e2e_bench/all.sh [seed] [seconds]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
seconds="${2:-10}"
for workload in steady-b8-channel steady-b2-tcp replan-b4-tcp-threads; do
    for trace in 0 1; do
        bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
