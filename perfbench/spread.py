"""Run-to-run spread of every metric, the figure the bounds are set from.

    python3 perfbench/spread.py --workload scan --seeds 1-10 [--seconds 30] [--trace 0]

Runs run.py once per seed, one after another, and prints for each metric
its median and the distance between the first and third quartiles as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
bound in BENCHMARK.json. Also prints the share of failed queries, which
must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values = {}
    shares = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: run.py exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: wrong answers")
        shares.append((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds and bounds[k])
        print(f"seed {seed}: {result['attempted']} attempted, {result['failed']} failed  {line}", flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} runs of {seconds:g} s")
    print(f"{'metric':44s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:44s} {med:12.6g} {spread:10.3f} {bound if bound else '':>6}")
    ratios = {f / a for f, a in shares}
    print(f"failed share: {'the same in every run' if len(ratios) == 1 else 'DIFFERS'} ({shares[0][0]}/{shares[0][1]})")


if __name__ == "__main__":
    main()
