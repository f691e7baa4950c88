"""Timed passes over one workload's query list, in one process.

Started by run.py with the query list it wrote; prints one JSON document
with the pass wall times, the per-query latencies at the reference speed,
the reference round times, the answers of the first pass, the peak resident memory and, with ``--trace 1``, the per-layer
figures of the traced passes. Each query runs in this process through
``csemigroups.cli.main(argv)`` with stdout and stderr captured.

Untraced and traced passes alternate when tracing, so the tracing overhead
is measured on the same machine state as the figures it qualifies.

The host's speed drifts, so the worker times a few rounds of the reference
load of ``reference.py`` before the first query, after every half second of
query time and at the end of every pass. Each query's latency is scaled by
``ROUND_S`` over the mean round time of the two probes around it. A pass's
wall time is the sum of its query latencies, so the probes are not in it.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import reference
import tracing

PROBE_ROUNDS = 4  # rounds of the reference load per probe, about 30 ms
PROBE_EVERY_S = 0.5  # of query time; the probes add about 6 %


class Gauge:
    """Probes the reference load and scales the latencies timed since the
    previous probe to the reference speed."""

    def __init__(self):
        self.rounds = [reference.round_time(PROBE_ROUNDS)]
        self.pending = []  # (list, index) of latencies not yet scaled
        self.elapsed = 0.0

    def add(self, scaled, i):
        self.pending.append((scaled, i))
        self.elapsed += scaled[i]
        if self.elapsed >= PROBE_EVERY_S:
            self.probe()

    def probe(self):
        self.rounds.append(reference.round_time(PROBE_ROUNDS))
        factor = reference.ROUND_S / ((self.rounds[-2] + self.rounds[-1]) / 2)
        for scaled, i in self.pending:
            scaled[i] *= factor
        self.pending, self.elapsed = [], 0.0


def run_pass(main, queries, gauge, rec=None):
    """One pass; with a recorder, each query is a root span. Returns the
    measured latencies, the same at the reference speed, and the answers."""
    latencies = []
    scaled = []
    answers = []
    for argv, _ in queries:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        if rec is not None:
            rec.open(tracing.ROOT)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # the console entry point would print a traceback and exit 1
            rc = 1
            err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
        finally:
            if rec is not None:
                rec.close()
        latencies.append(time.perf_counter() - t0)
        scaled.append(latencies[-1])
        gauge.add(scaled, len(scaled) - 1)
        lines = err.getvalue().strip().splitlines()
        answers.append([rc, out.getvalue(), lines[-1] if lines else ""])
    gauge.probe()
    return latencies, scaled, answers


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--queries", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="write the raw spans of the first traced pass here")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import csemigroups.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"csemigroups was imported from {cli.__file__}, not from {src}")

    with open(args.queries, encoding="utf-8") as fh:
        queries = json.load(fh)

    first = None
    mismatched = 0
    untraced, traced, latencies, layer_passes = [], [], [], []
    spans = None
    gauge = Gauge()
    start = time.perf_counter()
    n = 0
    # whole passes only; a traced run also ends on a traced pass
    while n == 0 or time.perf_counter() - start < args.seconds or (args.trace and n % 2 == 1):
        use_trace = args.trace and n % 2 == 1
        rec = tracing.Recorder(keep_spans=spans is None and args.spans is not None) if use_trace else None
        saved = tracing.install(rec) if use_trace else None
        gc.collect()
        try:
            lat, scaled, answers = run_pass(cli.main, queries, gauge, rec)
        finally:
            if saved is not None:
                tracing.uninstall(saved)
        wall = sum(lat)
        if first is None:
            first = answers
        elif answers != first:
            mismatched += 1
        if use_trace:
            traced.append(wall)
            layer_passes.append(tracing.pass_metrics(rec))
            if rec.spans is not None:
                spans = rec.spans
        else:
            untraced.append(wall)
            latencies.append(scaled)
        n += 1

    result = {
        "passes": n,
        "walls": untraced,
        "latencies": latencies,
        "rounds": gauge.rounds,
        "answers": first,
        "mismatched_passes": mismatched,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        # counts repeat exactly from pass to pass; median_low keeps them whole
        layers = {
            k: (statistics.median_low if isinstance(v, int) else statistics.median)([p[k] for p in layer_passes])
            for k, v in layer_passes[0].items()
        }
        layers["trace.wall_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        layers["reference.round_ms"] = 1000 * statistics.median(gauge.rounds)
        result["layers"] = layers
        if spans is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
