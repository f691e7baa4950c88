"""Benchmark of the `csg` command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan|box|descent --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run compiles the package's bytecode,
writes the seeded inputs, then starts one worker process that runs whole
passes over the workload's query list for S seconds. ``setup_s`` is the
median import time of ``csemigroups.cli`` in fresh interpreters started
before and after the worker. Each query is one in-process
``csemigroups.cli.main(argv)`` call, one client in a closed loop. The
answers of the first pass are checked against the independent computations
in ``oracle.py``; every later pass must repeat them byte for byte. Every
end-to-end timing is given at the reference speed of ``reference.py``, from
the reference load timed next to it.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end figures, with ``--trace 1`` the per-layer ones
from traced passes (see README.md). Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

from reference import ROUND_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_STARTS = 10  # before and again after the timed passes
SETUP_ROUNDS = 3  # reference rounds before and after each timed import
# the worker overruns --seconds by at most one pass; the whole run must end within 180 s
WORKER_SLACK_S = 90


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Compile the package's bytecode so no timed import compiles it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
        check=True,
        stdout=subprocess.DEVNULL,
    )


# Times the import between two short runs of the reference load; perfbench/
# is on the path only while reference.py is imported.
IMPORT = f"""\
import sys, time
sys.path.append({HERE!r}); import reference; sys.path.pop()
before = reference.round_time({SETUP_ROUNDS})
t = time.perf_counter(); import csemigroups.cli; t = time.perf_counter() - t
print(t, before, reference.round_time({SETUP_ROUNDS}))
"""


def import_times(starts):
    """Seconds that ``import csemigroups.cli`` takes in each of ``starts``
    fresh interpreters, at the reference speed. The interpreter's own
    start-up is not counted: no change to the package moves it, and it
    varies with process creation."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(starts):
        proc = subprocess.run([sys.executable, "-c", IMPORT], env=env, check=True, cwd=ROOT,
                              capture_output=True, text=True)
        t, before, after = map(float, proc.stdout.split())
        times.append(t * ROUND_S / ((before + after) / 2))
    return times


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def check_answers(queries, answers):
    """Returns (failed per pass, list of wrong-answer messages)."""
    failed = 0
    wrong = []
    for query, (rc, out, err) in zip(queries, answers):
        if rc != query.expect:
            failed += 1
            print(f"perfbench: failed ({query.label}, exit {rc}, {err}): csg {' '.join(query.argv)[:120]}", file=sys.stderr)
            continue
        if query.expect == 2:
            if out or not err.startswith("usage error"):
                wrong.append(f"{query.label}: exit 2 without a usage error")
            continue
        try:
            message = query.check(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            message = f"unreadable answer ({type(exc).__name__}: {exc})"
        if message:
            wrong.append(f"{query.label}: {message}: csg {' '.join(query.argv)[:120]}")
    return failed, wrong


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="smallest inputs (schema self-test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "csemigroups", "cli.py")):
        fail(f"no csemigroups package under {os.path.join(ROOT, 'src')}; run from a checkout")
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    build()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-{args.seed}-") as inputs:
        queries = workloads.make(args.workload, args.seed, args.small, inputs)
        qpath = os.path.join(inputs, "queries.json")
        with open(qpath, "w", encoding="utf-8") as fh:
            json.dump([[q.argv, q.expect] for q in queries], fh)
        setup = [] if args.trace else import_times(SETUP_STARTS)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
            "--queries", qpath, "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.trace:
            cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds + WORKER_SLACK_S)
        if not args.trace:
            setup += import_times(SETUP_STARTS)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout)

    failed, wrong = check_answers(queries, result["answers"])
    for message in wrong[:10]:
        print(f"perfbench: wrong answer: {message}", file=sys.stderr)
    if result["mismatched_passes"]:
        wrong.append("answers changed between passes")
        print(f"perfbench: {result['mismatched_passes']} passes gave other answers than the first", file=sys.stderr)
    passes = result["passes"]

    if args.trace:
        units = dict(tracing.metric_names())
        metrics = {name: {"value": value, "unit": units[name]} for name, value in result["layers"].items()}
    else:
        # The host's speed drifts between regimes that last from a few
        # queries to minutes. The worker gives each latency at the reference
        # speed; wall_s is the mean pass of such latencies, and each query's
        # latency is its mean over the passes before the quantiles are taken
        # over the query list.
        walls = [sum(lat) for lat in result["latencies"]]
        by_query = [statistics.fmean(lat[i] for lat in result["latencies"]) for i in range(len(queries))]
        ranked = sorted(by_query)
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "query_p50_ms": {"value": 1000 * percentile(ranked, 0.5), "unit": "ms"},
            "query_p90_ms": {"value": 1000 * percentile(ranked, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
        with open(os.path.join(OUT, f"detail-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({
                "walls": walls,
                "measured_walls": result["walls"],
                "rounds": result["rounds"],
                "setup": setup,
                "labels": [q.label for q in queries],
                "latencies": result["latencies"],
                "queries": [[q.label, t] for q, t in zip(queries, by_query)],
            }, fh)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {passes} passes of {len(queries)} queries,"
        f" {failed * passes} failed, {len(wrong)} wrong",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not wrong,
        "attempted": passes * len(queries),
        "failed": failed * passes,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
