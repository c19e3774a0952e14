"""Runs every workload once per seed and prints each end-to-end metric's
median and quartile spread, (Q3 - Q1) / median, as BENCHMARK.json bounds it.
With --sets 2 it repeats the whole batch and also prints how far the second
median lies from the first, in the direction the metric gets worse.

Build first, then run from the repository root:
    cargo build --release --offline --manifest-path repobench/Cargo.toml
    python3 repobench/spread.py --seconds 30 --seeds 1,2,3,4,5,6,7,8,9,10 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "repobench/Cargo.toml", "--"]


def batch(workload, seeds, seconds):
    """Runs one workload once per seed; returns metric -> values, ok."""
    values, ok = {}, True
    for seed in seeds:
        run = subprocess.run(
            COMMAND + ["--workload", workload, "--seed", seed,
                       "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if run.returncode != 0 or not result["correct"]:
            ok = False
            print(f"{workload} seed {seed}: FAILED ({result['failed']} of "
                  f"{result['attempted']} cells)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads",
                        default="detection_sweep,fault_campaign,defense_grid_observed")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = args.seeds.split(",")
    ok = True
    medians = {}
    for s in range(args.sets):
        for workload in workloads:
            values, batch_ok = batch(workload, seeds, args.seconds)
            ok = ok and batch_ok
            print(f"== set {s + 1} {workload}")
            for name, v in values.items():
                bound = spec[name]["bound"]
                med = statistics.median(v)
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / med if med else 0.0
                line = (f"  {name:15s} median {med:.6g}  spread {spread:.4f}  "
                        f"bound {bound}")
                if spread >= bound / 3:
                    line += "  (spread above bound/3)"
                first = medians.setdefault((workload, name), med)
                if s > 0 and first:
                    sign = 1 if spec[name]["better"] == "lower" else -1
                    worse = sign * (med - first) / first
                    line += f"  vs set 1: {worse:+.4f}"
                    if worse > bound:
                        line += " (worse than bound)"
                if name == "run_s":
                    line += "\n    runs: " + " ".join(f"{x:.4g}" for x in v)
                print(line)
            sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
