#!/usr/bin/env bash
# CI gate: lint-clean build plus the full test suite, chaos tests included.
#
#   scripts/ci.sh          # everything
#   scripts/ci.sh quick    # skip the slower suites (socket chaos, corruption
#                          # convergence) and the benchmark smoke
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> rustfmt (check only)"
cargo fmt --check

echo "==> one shuffle (crate sources draw shuffles through pgrid_net::draw)"
if grep -rn "SliceRandom" crates/*/src; then
    echo "FATAL: SliceRandom under crates/*/src; use pgrid_net::draw::shuffle"
    exit 1
fi

echo "==> one leaf index (peers hold pgrid_proto::LeafIndex)"
if grep -rnE "TrieIndex<|index: BTreeMap<Key" crates/*/src; then
    echo "FATAL: a second per-peer index shape under crates/*/src; use pgrid_proto::LeafIndex"
    exit 1
fi

echo "==> one frame->event mapping (only the node shell turns frames into protocol events)"
if grep -rnE "Event::(OfferReceived|AnswerReceived|ConfirmReceived) \{" crates/*/src \
    | grep -vE "^crates/(node/src/node|proto/src/peer)\.rs:"; then
    echo "FATAL: a second frame->event mapping under crates/*/src; drive peers through the node shell"
    exit 1
fi

echo "==> two transports (sockets and the virtual clock; no mailbox transport, no actor loop)"
if grep -rnE "LocalTransport|RegisterError" crates tests examples \
    || grep -n "fn run(" crates/node/src/node.rs; then
    echo "FATAL: the mailbox transport or the shell's actor loop is back; host shells on TcpTransport or SimTransport"
    exit 1
fi

echo "==> clippy (all targets, warnings are errors, perf lints on)"
cargo clippy --all-targets -- -D warnings -D clippy::perf -W clippy::redundant_clone

echo "==> docs (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> build (release)"
cargo build --release

echo "==> tests"
cargo test -q

echo "==> virtual-clock/socket differential (real TCP loopback, two fixed seeds)"
cargo test --release --test differential_sim_tcp

echo "==> virtual-clock determinism (same seed twice at recmax 2, clean and under every fault class)"
cargo test --release --test sim_determinism

echo "==> batch determinism (per-query RNG streams: chunk 1/8/64 x threads 1/4 byte-identical)"
cargo test --release --test batch_determinism

echo "==> storage backends (seeded equivalence loops, crash points, cross-backend determinism)"
cargo test --release -p pgrid-store
cargo test --release --test storage_backends
cargo run --release -p pgrid-cli --bin pgrid -- exp store --small

echo "==> golden trace (record twice, byte-compare; diff across seeds)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "${trace_dir}"' EXIT
cargo run --release -p pgrid-cli --bin pgrid -- trace record --n 128 --maxl 4 \
    --queries 200 --shards 4 --seed 11 --out "${trace_dir}/a.jsonl"
cargo run --release -p pgrid-cli --bin pgrid -- trace record --n 128 --maxl 4 \
    --queries 200 --shards 4 --threads 4 --seed 11 --out "${trace_dir}/b.jsonl"
cmp "${trace_dir}/a.jsonl" "${trace_dir}/b.jsonl" \
    || { echo "FATAL: same-seed traces differ across thread counts"; exit 1; }
cargo run --release -p pgrid-cli --bin pgrid -- trace record --n 128 --maxl 4 \
    --queries 200 --shards 4 --seed 12 --out "${trace_dir}/c.jsonl"
cargo run --release -p pgrid-cli --bin pgrid -- trace diff \
    --a "${trace_dir}/a.jsonl" --b "${trace_dir}/c.jsonl" \
    | grep -q "first divergence" \
    || { echo "FATAL: trace diff failed to separate two seeds"; exit 1; }

echo "==> balance convergence (skew adaptation to <= 2x max/mean + flash-crowd replica growth)"
cargo run --release -p pgrid-cli --bin pgrid -- exp balance --small \
    || { echo "FATAL: load balancing missed an acceptance gate"; exit 1; }

echo "==> paper tables (pgrid exp all regenerates results/all_experiments.txt, byte-compare)"
tables="${trace_dir}/all_experiments.txt"
cargo run -q --release -p pgrid-cli --bin pgrid -- exp all >"${tables}"
cmp "${tables}" results/all_experiments.txt \
    || { echo "FATAL: a paper table moved; diff results/all_experiments.txt"; exit 1; }

echo "==> benchmark build (benchmark/src/probes.rs builds ProtocolPeers from engine tables)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --features node-crate

echo "==> benchmark runs (engine_read and engine_mixed at smoke size report correct results)"
for workload in engine_read engine_mixed; do
    bash benchmark/run.sh --workload "${workload}" --smoke --seconds 1 |
        python3 -c '
import json, sys
results = [json.loads(line) for line in sys.stdin if line.startswith("{")]
assert len(results) == 1 and results[0]["correct"] is True, results
' || { echo "FATAL: ${workload} did not report a correct run"; exit 1; }
done

if [[ "${1:-}" != "quick" ]]; then
    echo "==> socket chaos suite (same fault plans over real TCP, three fixed seeds)"
    cargo test --release --test tcp_chaos -- --nocapture

    echo "==> corruption-convergence suite (four corruption classes, three fixed seeds)"
    cargo test --release --test self_stabilization -- --nocapture

    echo "==> repo benchmark smoke (four workloads, both trace modes, tiny sizes)"
    bash benchmark/check.sh
fi

echo "CI green."
