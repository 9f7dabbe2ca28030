#!/usr/bin/env python3
"""Runs one workload once per seed and prints each metric's median,
quartiles and quartile spread (Q3 - Q1, as a share of the median).

Usage, from the repository root:

    python3 perfbench/spread.py WORKLOAD SECONDS SEED [SEED ...]

Quartiles are Python's statistics.quantiles(values, n=4). Each run's
result line is echoed first, so the output is also the raw record.
"""

import json
import statistics
import subprocess
import sys


def run(workload, seconds, seed):
    cmd = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--",
           "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    workload, seconds, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
    values = {}
    for seed in seeds:
        result = run(workload, seconds, seed)
        print(f"seed {seed}: {json.dumps(result)}", flush=True)
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} checks failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, v in sorted(values.items()):
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        print(f"{name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {(q3 - q1) / med:>8.4f}")


if __name__ == "__main__":
    main()
