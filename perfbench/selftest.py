"""Smallest-size self-test of the benchmark's output contract.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed; that run.py, on the smallest
inputs and a one-second run of every workload, prints as its last line one
JSON object with exactly the keys correct, attempted, failed and metrics,
whose metrics are exactly the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) ones of BENCHMARK.json with their units; and that a
directory holding only BENCHMARK.json and the benchmark's files makes
run.py exit with a nonzero code without printing a result. Exits 1 on the
first failure.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(condition, message):
    if not condition:
        sys.exit(f"selftest: {message}")


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(spec["paths"] == ["perfbench"], "paths")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200, f"workload {w}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "metric names are not unique")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"end-to-end metric {m}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer metric {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    check(proc.returncode == 0, f"{workload} trace {trace}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
    check(result["correct"] is True, f"{workload}: wrong answers\n{proc.stderr}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{workload}: attempted")
    check(isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], f"{workload}: failed")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        check(set(metric) == {"value", "unit"} and isinstance(metric["value"], numbers.Real), f"{name}: {metric}")
    print(f"selftest: {workload} trace {trace}: ok ({result['attempted']} attempted, {result['failed']} failed)")


def check_bare_directory():
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="bare-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bare, timeout=170)
    check(proc.returncode != 0, "run.py succeeded without the package")
    check('"metrics"' not in proc.stdout, "run.py printed a result without the package")
    print(f"selftest: bare directory: exit code {proc.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_directory()
    print("selftest: ok")


if __name__ == "__main__":
    main()
