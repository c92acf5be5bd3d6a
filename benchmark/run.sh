#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   bash benchmark/run.sh --workload live_read --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh                      # all four workloads, defaults
#   bash benchmark/run.sh --trace 1            # all four, per-layer run
#
# The real crates/node is tried first; if it does not compile (soak.rs does
# not, at the seed) the generated view of it is built instead. The choice is
# remembered beside the build and printed as node_source in the host block.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
stamp="$target/pgrid-benchmark.node-source"
log="$target/pgrid-benchmark.build-log"
mkdir -p "$target"

build() {
    cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" --features "node-$1" 2>"$log"
}

if [ -f "$stamp" ]; then
    build "$(cat "$stamp")" || { cat "$log" >&2; exit 1; }
else
    if build crate; then
        echo crate >"$stamp"
    elif build view; then
        echo view >"$stamp"
    else
        cat "$log" >&2
        exit 1
    fi
    # Write the fresh build out now, not during the first measured run.
    sync
fi

# engine_mixed opens one storage backend (one file) per peer.
ulimit -Sn "$(ulimit -Hn)" 2>/dev/null || true

bin="$target/release/pgrid-benchmark"
case " $* " in
*" --workload "*)
    exec "$bin" --out "$here/out" "$@"
    ;;
*)
    for workload in live_read live_mixed engine_read engine_mixed; do
        "$bin" --out "$here/out" --workload "$workload" "$@"
    done
    ;;
esac
