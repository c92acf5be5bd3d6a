#!/usr/bin/env bash
# The cross-crate safety net on a machine with an empty crate registry:
# builds offline-tests/ (the root suites against the benchmark's stand-ins
# for rand, bytes, crossbeam, parking_lot and serde) and runs every suite
# that can run there, then names the ones that cannot and why.
#
#   scripts/offline-tests.sh          # everything runnable offline
#   scripts/offline-tests.sh quick    # without the two chaos suites (~100 s each)
set -euo pipefail
cd "$(dirname "$0")/../offline-tests"

run() {
    echo "==> $*"
    cargo test --release --offline --quiet "$@"
}

# crates/node's own unit tests and tests/robustness.rs.
run -p pgrid-node

for suite in alloc_free analysis_vs_simulation differential_sim_node differential_sim_tcp \
    end_to_end live_churn live_data_rehoming live_vs_sim; do
    run --test "$suite"
done

if [[ "${1:-}" != "quick" ]]; then
    run --test live_chaos
    run --test tcp_chaos
fi

for suite in batch_determinism experiments_smoke live_to_sim_bridge \
    storage_backends trace_determinism; do
    echo "SKIP $suite: reaches serde_json, whose stand-in panics by design"
done
echo "SKIP self_stabilization: every_corruption_class_converges_across_seeds grows past 16 GiB"

echo "offline tests green."
