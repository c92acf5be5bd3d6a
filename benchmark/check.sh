#!/usr/bin/env bash
# Smoke check, about 20 s once built: the package's unit tests, then every
# workload in both modes at tiny sizes (same code paths), with each result
# checked for correctness and its metric names against BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."

# Builds and settles which node source compiles.
bash benchmark/run.sh --workload engine_read --smoke --seconds 1 >/dev/null
source="$(cat "${CARGO_TARGET_DIR:-$here/target}/pgrid-benchmark.node-source")"
cargo test --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --features "node-$source"

for trace in 0 1; do
    bash benchmark/run.sh --smoke --seconds 1 --trace "$trace" |
        python3 -c '
import json, sys
spec = json.load(open("BENCHMARK.json"))
want = {m["name"] for m in spec["per_layer" if sys.argv[1] == "1" else "end_to_end"]}
results = [json.loads(line) for line in sys.stdin if line.startswith("{")]
assert len(results) == len(spec["workloads"]), f"{len(results)} results"
for r in results:
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
    got = set(r["metrics"])
    assert got == want, f"missing {sorted(want - got)}, unlisted {sorted(got - want)}"
print(f"trace={sys.argv[1]}: {len(results)} workloads, {len(want)} metrics each, all correct")
' "$trace"
done
