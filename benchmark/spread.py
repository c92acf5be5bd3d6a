#!/usr/bin/env python3
"""Runs every workload on ten seeds and prints, per end-to-end metric, the
median and the interquartile spread as a share of the median, next to the
bound BENCHMARK.json sets. A benchmark is steady when every spread (setup_s
aside) stays under a third of its bound.

    python3 benchmark/spread.py [first_seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

here = Path(__file__).resolve().parent
spec = json.loads((here.parent / "BENCHMARK.json").read_text())
first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
workloads = [a for a in sys.argv[2:] if a != "-v"] or [w["name"] for w in spec["workloads"]]

for workload in workloads:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first_seed, first_seed + 10):
        out = subprocess.run(
            spec["command"]
            + ["--workload", workload, "--seed", str(seed)]
            + ["--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=here.parent, check=True, capture_output=True, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    print(f"{workload} (seeds {first_seed}..{first_seed + 9})")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread <= m["bound"] / 3 or m["name"] == "setup_s" else "  <-- wide"
        print(f"  {m['name']:<16} median {median:<14.6g} {m['unit']:<6}"
              f" spread {spread:7.4f}  bound {m['bound']}{flag}")
        if "-v" in sys.argv:
            print("    ", " ".join(f"{x:.6g}" for x in sorted(v)))
