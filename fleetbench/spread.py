#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the built benchmark once per seed on one workload and prints, for
every metric, the median of the runs and the distance between the first
and third quartile as a share of the median (the spread the benchmark's
bounds in BENCHMARK.json are checked against).

    python3 fleetbench/spread.py --workload serve_wfq --seeds 1-10 --seconds 20

Run it from the repository root after
`cargo build --release --manifest-path fleetbench/Cargo.toml`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    p.add_argument("--bin", default=os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join("fleetbench", "target")),
        "release", "fleetbench"))
    args = p.parse_args()

    values = {}
    for seed in seed_list(args.seeds):
        out = subprocess.run(
            [args.bin, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect run\n{out}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32} median {med:14.6g}  iqr/median {spread:.4f}")


if __name__ == "__main__":
    main()
