#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end-to-end and per layer.

Run from the repository root (no install needed; the engine is imported
from ``src/``)::

    python3 perfbench/run.py --workload pagerank --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``pagerank`` — Listing 1 through ``RQLSession.execute``;
* ``sssp``     — Listing 2 with the ``MonotoneMinDist`` fixpoint handler;
* ``adhoc``    — one client sending a seeded stream of non-recursive RQL
  queries, closed loop, to one long-lived session.

One process, one client, no threads.  Every query result is checked
against an oracle, and a query's ``QueryMetrics.fingerprint`` must repeat
exactly across its repeats; a query that raises, fails its check, or
stops at ``max_strata`` counts as failed.

``--trace 0`` measures the end-to-end metrics with nothing attached.
``--trace 1`` measures the per-layer metrics: a counting phase (a warm-up
pass over the workload's queries, then one pass under cProfile for the
exact work counters), then untraced blocks (the baseline for the tracing
overhead; GC pauses are read here) alternating with traced blocks that
record spans at every layer boundary.  The spans go to
``perfbench/out/<workload>-seed<N>-spans.csv``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

MIN_REPEATS = 3
"""Recursive workloads: fewest full repeats (setup + query) in a run."""
ADHOC_QUERIES_PER_SECOND = 100
"""Ad hoc: the stream is ``ADHOC_QUERIES_PER_SECOND * --seconds`` queries
long (about ``--seconds`` of work on a 2-CPU box).  A fixed amount of
work, not a deadline: per-query state is retained across queries, so heap
size, GC tail latency and peak memory must not depend on how fast the
machine happened to run."""
MIN_QUERIES = 1000
"""Ad hoc: fewest queries in a run, so the 99th percentile has ten
samples beyond it."""
ADHOC_SETUP_EVERY = 100
"""Ad hoc: one extra timed set-up (then discarded) after every this many
queries, so ``setup_s`` samples the whole run, not one moment of it.
Divides ``ADHOC_QUERIES_PER_SECOND``."""
TRACE_MIN_REPEATS = 2
TRACE_MIN_QUERIES = 200
TRACE_BLOCK = 50
"""Ad hoc: queries per traced or untraced block."""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tuples_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "sim_s": "s",
    "sim_mb": "MB",
    "peak_rss_mb": "MB",
}

OPERATORS = ("TableScan", "FeedbackSource", "Filter", "Project",
             "ApplyFunction", "FusedKernel", "HashJoin", "GroupBy",
             "Fixpoint", "RehashSender", "ExchangeReceiver", "Collect")

# Span name -> per-layer self-time metric (seconds per query).
SELF_TIME = {
    "rql.parse": "rql.parse_s",
    "rql.compile": "rql.compile_s",
    "optimizer.optimize": "optimizer.optimize_s",
    "optimizer.lower": "optimizer.lower_s",
    "optimizer.rewrite": "optimizer.rewrite_s",
    "optimizer.fuse": "optimizer.fuse_s",
    "analysis.analyze": "analysis.analyze_s",
    "analysis.absint": "analysis.absint_s",
    "analysis.lineage": "analysis.lineage_s",
    "runtime.execute": "runtime.execute_s",
    "runtime.instantiate": "runtime.instantiate_s",
    "runtime.flush": "runtime.flush_s",
    "udf.handler": "udf.handler_s",
    "net.drain": "net.drain_s",
    "obs.flight": "obs.flight_s",
    **{f"operators.{op}": f"operators.{op}.self_s" for op in OPERATORS},
}
# Spans that belong to set-up: normalised per set-up, not per query.
SETUP_SPANS = {
    "storage.create_table": "storage.create_table_s",
    "datasets.generate": "datasets.generate_s",
}
# Counters recorded at the traced boundaries, reported per query.
PER_QUERY_COUNTS = (
    ["optimizer.rewrites_applied", "runtime.strata",
     "runtime.checkpoint_msgs", "udf.handler_calls", "net.messages",
     "net.handlers_live"]
    + [f"operators.{op}.{c}" for op in OPERATORS
       for c in ("rows_in", "batches")])
EXACT_COUNTS = ("py.calls", "common.deltas_allocated",
                "common.row_bytes_calls", "cluster.charge_calls")


def per_layer_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: "s" for name in SELF_TIME.values()}
    units.update({name: "s" for name in SETUP_SPANS.values()})
    units.update({name: "count" for name in PER_QUERY_COUNTS})
    units.update({name: "count" for name in EXACT_COUNTS})
    units.update({
        "runtime.stratum_p50_ms": "ms",
        "runtime.stratum_max_ms": "ms",
        "runtime.checkpoint_mb": "MB",
        "operators.HashJoin.fanout": "ratio",
        "operators.Fixpoint.admit_ratio": "ratio",
        "gc.pause_s": "s",
        "gc.collections": "count",
        "trace.overhead_pct": "%",
    })
    return dict(sorted(units.items()))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GCPauses:
    """Collector pause time and count, read through ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class Runner:
    """Runs a workload's queries, checks each result, keeps the samples."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fingerprints = {}
        #: First result metrics of each distinct query (for sim_s/sim_mb).
        self.first_metrics = {}
        self.tracer = None
        self.walls = []
        self.tuples = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def execute(self, session, i: int) -> None:
        """Send query ``i``, time it, and check what came back."""
        query = self.workload.queries[i]
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = query.run(session)
        except Exception as exc:  # a failing query is data, not a crash
            self.walls.append(time.perf_counter() - start)
            self.fail(f"query {i} raised {type(exc).__name__}: {exc}")
            return
        self.walls.append(time.perf_counter() - start)
        metrics = result.metrics
        self.tuples += metrics.total_tuples()
        if self.tracer is not None:
            self.tracer.run += 1
            self.tracer.counts["fixpoint.admitted"] += sum(
                metrics.delta_series())
        self.first_metrics.setdefault(i, metrics)
        error = self.workload.check(i, result)
        if error is None and (self.fingerprints.setdefault(
                i, metrics.fingerprint()) != metrics.fingerprint()):
            error = "fingerprint differs from the query's first run"
        if error is not None:
            self.fail(f"query {i}: {error}")


def timed_setup(workload, setup_s: list):
    t0 = time.perf_counter()
    session = workload.setup()
    setup_s.append(time.perf_counter() - t0)
    return session


def recursive_repeat(runner: Runner, setup_s: list) -> None:
    """One full repeat: fresh cluster and set-up, then the timed query.

    The set-up heap is collected and frozen before the query; the
    collector stays enabled while it runs, because users pay for it."""
    session = timed_setup(runner.workload, setup_s)
    gc.collect()
    gc.freeze()
    try:
        runner.execute(session, 0)
    finally:
        gc.unfreeze()
    del session
    gc.collect()


class AdHocStream:
    """The closed loop: one client, one long-lived session, the distinct
    queries cycled in their seeded order."""

    def __init__(self, runner: Runner, session):
        self.runner = runner
        self.session = session
        self.sent = 0

    def send(self, n: int) -> None:
        queries = len(self.runner.workload.queries)
        for _ in range(n):
            self.runner.execute(self.session, self.sent % queries)
            self.sent += 1


def adhoc_session(runner: Runner, setup_s: list):
    """The session that serves the stream, with its set-up heap collected
    and frozen before the first query."""
    gc.collect()
    session = timed_setup(runner.workload, setup_s)
    gc.collect()
    gc.freeze()
    return session


def sim_totals(runner: Runner):
    """Simulated seconds and MB of one pass over the distinct queries."""
    metrics = runner.first_metrics.values()
    return (sum(m.total_seconds() for m in metrics),
            sum(m.total_bytes() for m in metrics) / 1e6)


def end_to_end(runner: Runner, setup_s: list) -> dict:
    walls = runner.walls
    total = sum(walls)
    sim_s, sim_mb = sim_totals(runner)
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "tuples_per_s": runner.tuples / total,
        "queries_per_s": len(walls) / total,
        "query_p50_ms": statistics.median(walls) * 1000.0,
        "query_p99_ms": percentile(walls, 99) * 1000.0,
        "sim_s": sim_s,
        "sim_mb": sim_mb,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]}
            for name in END_TO_END}


def run_end_to_end(workload, seconds: float):
    runner = Runner(workload)
    setup_s = []
    if workload.name == "adhoc":
        stream = AdHocStream(runner, adhoc_session(runner, setup_s))
        total = max(MIN_QUERIES, ADHOC_QUERIES_PER_SECOND * seconds)
        while stream.sent < total:
            stream.send(ADHOC_SETUP_EVERY)
            timed_setup(workload, setup_s)
    else:
        start = time.perf_counter()
        while (len(runner.walls) < MIN_REPEATS
               or time.perf_counter() - start < seconds):
            recursive_repeat(runner, setup_s)
    return runner, end_to_end(runner, setup_s)


def run_pass(runner: Runner, session, profile: bool = False):
    """One untimed pass over the workload's distinct queries, each result
    checked.  With ``profile`` the pass runs under cProfile and the exact
    work counters are returned, per query."""
    from tracing import count_calls

    workload = runner.workload
    results = []

    def run():
        results.extend(q.run(session) for q in workload.queries)

    gc.collect()
    exact = count_calls(run) if profile else run()
    runner.attempted += len(results)
    for i, result in enumerate(results):
        error = workload.check(i, result)
        if error is not None:
            runner.fail(f"untimed pass, query {i}: {error}")
    if profile:
        return {name: value / len(results) for name, value in exact.items()}
    return None


def run_traced(workload, seed: int, seconds: float):
    from tracing import Tracer

    runner = Runner(workload)
    adhoc = workload.name == "adhoc"
    session = adhoc_session(runner, []) if adhoc else None

    # Phase 1: exact counters.  Process-wide memo caches (row sizes) make
    # call counts depend on what ran before, so the profiled pass comes
    # at a fixed point: right after one warm-up pass over the same queries.
    run_pass(runner, session or workload.setup())
    exact = run_pass(runner, session or workload.setup(), profile=True)

    # Phase 2: traced and untraced blocks alternate, so drift in machine
    # load or heap size lands on both sides of the overhead comparison.
    # GC pauses are read in the untraced blocks only.
    tracer = Tracer()
    pauses = GCPauses()
    untraced, traced = [], []
    if adhoc:
        with tracer:
            tracer.run = -1  # one traced set-up; it is not a query
            workload.setup()
        tracer.run = 0
        stream = AdHocStream(runner, session)
        gc.collect()
        gc.freeze()
    minimum = TRACE_MIN_QUERIES if adhoc else TRACE_MIN_REPEATS
    start = time.perf_counter()
    turn = 0
    while (min(len(untraced), len(traced)) < minimum
           or time.perf_counter() - start < seconds):
        in_trace = turn % 2 == 1
        turn += 1
        runner.walls = traced if in_trace else untraced
        runner.tracer = tracer if in_trace else None
        with (tracer if in_trace else pauses):
            if adhoc:
                stream.send(TRACE_BLOCK)
            else:
                recursive_repeat(runner, [])
    runner.tracer = None
    runner.walls = traced
    setups = 1 if adhoc else len(traced)

    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}-spans.csv")
    tracer.write_spans(span_path)

    n = len(traced)
    counts = tracer.counts
    values = {metric: tracer.self_s.get(span, 0.0) / n
              for span, metric in SELF_TIME.items()}
    values.update({metric: tracer.self_s.get(span, 0.0) / setups
                   for span, metric in SETUP_SPANS.items()})
    values.update({name: counts.get(name, 0) / n
                   for name in PER_QUERY_COUNTS})
    values.update(exact)
    strata = tracer.stratum_ms
    join_in = counts.get("operators.HashJoin.rows_in", 0)
    fix_in = counts.get("operators.Fixpoint.rows_in", 0)
    values.update({
        "runtime.stratum_p50_ms": statistics.median(strata) if strata else 0,
        "runtime.stratum_max_ms": max(strata, default=0.0),
        "runtime.checkpoint_mb":
            counts.get("runtime.checkpoint_bytes", 0) / 1e6 / n,
        "operators.HashJoin.fanout":
            counts.get("operators.HashJoin.rows_out", 0) / join_in
            if join_in else 0.0,
        "operators.Fixpoint.admit_ratio":
            counts.get("fixpoint.admitted", 0) / fix_in if fix_in else 0.0,
        "gc.pause_s": pauses.pause_s / len(untraced),
        "gc.collections": pauses.collections / len(untraced),
        "trace.overhead_pct":
            (statistics.median(traced) / statistics.median(untraced)
             - 1.0) * 100.0,
    })
    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return runner, metrics, span_path, len(tracer.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pagerank", "sssp", "adhoc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must not be negative")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"engine sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        runner, metrics, span_path, n_spans = run_traced(
            workload, args.seed, args.seconds)
    else:
        runner, metrics = run_end_to_end(workload, args.seconds)

    print(f"workload {workload.name}  seed {args.seed}  "
          f"queries timed {len(runner.walls)}")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        beyond = len(runner.walls) - math.ceil(0.99 * len(runner.walls))
        print(f"  query_p99_ms samples: {len(runner.walls)} "
              f"({beyond} beyond the 99th percentile)")
    else:
        print(f"  spans: {n_spans} written to "
              f"{os.path.relpath(span_path, ROOT)}")
    print(f"  error_rate {runner.failed / runner.attempted:.6g} fraction "
          f"({runner.failed} of {runner.attempted} failed)")
    for error in runner.errors:
        print(f"  FAILED: {error}")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
