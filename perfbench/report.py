#!/usr/bin/env python3
"""Runs perfbench/run.py for each workload and seed and prints every metric
by name and unit, with its median and quartile spread over the seeds (the
distance between the first and third quartile as a share of the median).

    python3 perfbench/report.py --seeds 1,2 --seconds 55
    python3 perfbench/report.py --seeds 1 --seconds 55 --trace 1 \\
        --workloads tiny_city

Run it from the root of a checkout, like run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True,
                   help="comma-separated seeds, one run each")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads",
                   help="comma-separated names (default: BENCHMARK.json's)")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.workloads:
        names = args.workloads.split(",")
    else:
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for name in names:
        values = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                ok = False
                print("%s seed %d: exit %d\n%s" % (name, seed, proc.returncode,
                                                  proc.stderr.strip()))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print("%s seed %d: correct=%s failed_share=%g (%d of %d)" % (
                name, seed, result["correct"],
                result["failed"] / result["attempted"], result["failed"],
                result["attempted"]), flush=True)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, (v["unit"], []))[1].append(
                    v["value"])
        for metric, (unit, vs) in sorted(values.items()):
            med = statistics.median(vs)
            spread = float("nan")
            if len(vs) >= 2 and med:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            print("  %-42s %-9s median %-12.6g spread %.3f" % (
                metric, unit, med, spread), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
