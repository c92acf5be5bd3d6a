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

for suite in alloc_free analysis_vs_simulation batch_determinism differential_sim_node \
    differential_sim_tcp end_to_end live_churn live_data_rehoming live_vs_sim \
    self_stabilization trace_determinism; do
    run --test "$suite"
done

# The unit tests of pgrid-core and pgrid-sim (their src/lib.rs as a test
# target), minus the ones that call serde_json at run time.
run --test core_unit -- \
    --skip snapshot::tests::json_round_trip \
    --skip snapshot::tests::snapshots_without_the_misplaced_field_still_parse
run --test sim_unit -- \
    --skip experiments::store::tests::every_backend_reproduces_the_reference_community \
    --skip report::tests::json_carries_title_and_rows

# pgrid-store's own unit tests (the ordered index and its seeded model loop,
# the three backends) and its crash-point suite.
run --test store_unit
run --test store_crash_points

# The one storage_backends test that never reaches serde_json.
run --test storage_backends disk_backed_peers_survive_reopen_and_reindex

if [[ "${1:-}" != "quick" ]]; then
    run --test live_chaos
    run --test tcp_chaos
fi

for suite in experiments_smoke live_to_sim_bridge "storage_backends (other 3 tests)"; do
    echo "SKIP $suite: reaches serde_json, whose stand-in panics by design"
done

echo "offline tests green."
