#!/usr/bin/env python3
"""Runs each workload twice with the same seed and checks that its exact
counters are bit-identical between the two processes.

Run from the repository root:  python3 perfbench/repeat_check.py [--seed N] [workload ...]
Exits 1 if any counter differs or a run reports incorrect outputs.
"""

import argparse
import json
import subprocess
import sys

# Metrics summed over a run's fixed prefix: the same seed must give the
# same bits. Untraced runs report the first group, traced runs the second.
EXACT = {
    "0": ["sim_attn_ms", "sim_speedup_vs_te"],
    "1": [
        "blocks.comp_blocks",
        "blocks.token_blocks",
        "hypergraph.pins",
        "sched.comm_mb",
        "sched.comm_launches",
        "sim.events",
        "sim.touched_flows",
        "planner.cache_hits",
        "recovery.redone_frac",
        "recovery.salvage_mb",
        "recovery.makespan_ratio",
    ],
}


def run(command, workload, seed, trace):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", trace]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    a = p.parse_args()
    ok = True
    for w in a.workloads:
        for trace, names in EXACT.items():
            first, second = (run(bench["command"], w, a.seed, trace) for _ in range(2))
            ok &= first["correct"] and second["correct"]
            for name in names:
                x, y = first["metrics"][name]["value"], second["metrics"][name]["value"]
                ok &= x == y
                print(f"{w:14s} {name:24s} {x!r:>24} {'identical' if x == y else f'DIFFERS: {y!r}'}")
    print("all exact counters identical" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
