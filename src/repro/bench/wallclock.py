"""Wall-clock microbenchmark: per-tuple vs batch-vectorized execution.

Everything else in :mod:`repro.bench` measures *simulated* time — the cost
model's account of what the paper's cluster would do.  This harness measures
the other axis: how long the simulator itself takes on this machine's
Python interpreter, with the batch-vectorized delta pipeline on and off.

Each workload (PageRank, SSSP, K-means) is run twice on identically-built
clusters: once with ``ExecOptions(batch=False)`` (one virtual ``push`` per
delta) and once with ``ExecOptions(batch=True)`` (operators move
``List[Delta]`` batches).  The harness asserts the two runs' simulated
metrics are identical — same seconds, bytes, delta counts, strata — before
reporting wall-clock seconds, tuples/sec, and speedup, so a reported
speedup can never come from doing different simulated work.

Run it with::

    PYTHONPATH=src python -m repro.bench.wallclock --out BENCH_1.json

``--smoke`` shrinks the datasets for CI.  ``--fusion`` measures the other
wall-clock axis this package tracks — fused vs unfused kernels
(``ExecOptions(fuse=...)``) — and writes the BENCH_5 payload::

    PYTHONPATH=src python -m repro.bench.wallclock --fusion --out BENCH_5.json

``--telemetry`` measures the flight recorder's and the live-telemetry
sampler's wall overhead (both default-on) and writes the BENCH_7 payload::

    PYTHONPATH=src python -m repro.bench.wallclock --telemetry --out BENCH_7.json

``--absint`` measures the proof-directed fast paths unlocked by the
delta-polarity abstract interpretation (``ExecOptions(absint=...)``) and
writes the BENCH_8 payload; it also reports the sanitizer-downgrade
effect (``sanitize="full"`` with and without proofs)::

    PYTHONPATH=src python -m repro.bench.wallclock --absint --out BENCH_8.json
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from typing import Callable, Dict, List, Tuple

from repro.algorithms import run_kmeans, run_pagerank, run_sssp
from repro.algorithms.sssp import make_start_table
from repro.bench.common import fresh_cluster, speedup
from repro.cluster.metrics import QueryMetrics
from repro.datasets import dbpedia_like, geo_points, sample_centroids
from repro.runtime.executor import ExecOptions

GRAPH_SCHEMA = ["srcId:Integer", "destId:Integer"]


def _graph_cluster(n_vertices: int, degree: float, nodes: int, seed: int):
    edges = dbpedia_like(n_vertices, avg_out_degree=degree, seed=seed)
    cluster = fresh_cluster(nodes)
    cluster.create_table("graph", GRAPH_SCHEMA, edges, "srcId",
                         replication=2)
    return cluster


def _pagerank_setup(n_vertices: int, degree: float, nodes: int, seed: int):
    cluster = _graph_cluster(n_vertices, degree, nodes, seed)
    return lambda options: run_pagerank(cluster, mode="delta", tol=0.01,
                                        options=options)[1]


def _sssp_setup(n_vertices: int, degree: float, nodes: int, seed: int):
    cluster = _graph_cluster(n_vertices, degree, nodes, seed)
    make_start_table(cluster, 0)
    return lambda options: run_sssp(cluster, options=options)[1]


def _kmeans_setup(n_points: int, k: int, nodes: int, seed: int):
    points = geo_points(n_points, n_clusters=k, seed=seed)
    centroids = sample_centroids(points, k, seed=seed + 1)
    cluster = fresh_cluster(nodes)
    cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                         points, None)
    cluster.create_table("centroids0", ["cid:Integer", "x:Double", "y:Double"],
                         centroids, "cid")
    return lambda options: run_kmeans(cluster, options=options)[1]


def _metrics_fingerprint(m: QueryMetrics) -> tuple:
    """Everything the simulator decides: must match bit-for-bit."""
    return m.fingerprint()


def _workloads(smoke: bool, nodes: int, seed: int
               ) -> List[Tuple[str, Callable]]:
    if smoke:
        pr_n, pr_deg = 200, 4.0
        ss_n, ss_deg = 200, 4.0
        km_n, km_k = 300, 4
    else:
        pr_n, pr_deg = 3000, 12.0
        ss_n, ss_deg = 3000, 12.0
        km_n, km_k = 3000, 8
    return [
        ("pagerank", lambda: _pagerank_setup(pr_n, pr_deg, nodes, seed)),
        ("sssp", lambda: _sssp_setup(ss_n, ss_deg, nodes, seed)),
        ("kmeans", lambda: _kmeans_setup(km_n, km_k, nodes, seed)),
    ]


def _time_run(make_runner: Callable, batch: bool, obs=None,
              sanitize: str = "off", fuse: bool = True, flight: bool = True,
              absint: bool = True
              ) -> Tuple[float, float, QueryMetrics]:
    """Build a fresh cluster, then time one query execution.

    Returns ``(setup_wall, run_wall, metrics)`` so the report can split
    per-phase wall time.  Setup garbage is collected before the timer
    starts and the collector is paused inside the timed region (both modes
    identically), so cluster construction debt is not billed to whichever
    mode happens to trip a generational collection first.
    """
    setup_start = time.perf_counter()
    runner = make_runner()
    setup_wall = time.perf_counter() - setup_start
    options = ExecOptions(batch=batch, obs=obs, sanitize=sanitize,
                          fuse=fuse, flight=flight, absint=absint)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        metrics = runner(options)
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return setup_wall, wall, metrics


def _measure_obs_overhead(make_runner: Callable, repeats: int) -> Dict:
    """Overhead of attaching an ObsContext with the tracer *disabled*
    (instrumentation hooks installed, no event emission) vs no context at
    all — the acceptance bar is < 5% with unchanged simulated metrics."""
    from repro.obs import ObsContext, Tracer

    plain: List[float] = []
    attached: List[float] = []
    m_plain = m_obs = None
    for _ in range(max(repeats, 3)):
        _, wall, m_plain = _time_run(make_runner, batch=True)
        plain.append(wall)
        obs = ObsContext(tracer=Tracer(enabled=False))
        _, wall, m_obs = _time_run(make_runner, batch=True, obs=obs)
        attached.append(wall)
    identical = (_metrics_fingerprint(m_plain)
                 == _metrics_fingerprint(m_obs))
    base, instrumented = min(plain), min(attached)
    return {
        "baseline_wall_seconds": round(base, 4),
        "tracer_disabled_wall_seconds": round(instrumented, 4),
        "overhead_pct": round((instrumented - base) / base * 100.0, 2)
        if base > 0 else None,
        "simulated_metrics_identical": identical,
    }


def _measure_sanitizer_overhead(make_runner: Callable, repeats: int) -> Dict:
    """Overhead of the runtime sanitizer at ``sample`` and ``full`` level
    vs ``off`` — the acceptance bar is < 10% at ``sample`` on PageRank,
    with bit-identical simulated metrics at every level (the sanitizer
    observes the simulation, it never participates in it)."""
    plain: List[float] = []
    sampled: List[float] = []
    full: List[float] = []
    m_plain = m_sample = m_full = None
    for _ in range(max(repeats, 3)):
        _, wall, m_plain = _time_run(make_runner, batch=True)
        plain.append(wall)
        _, wall, m_sample = _time_run(make_runner, batch=True,
                                      sanitize="sample")
        sampled.append(wall)
        _, wall, m_full = _time_run(make_runner, batch=True,
                                    sanitize="full")
        full.append(wall)
    fp = _metrics_fingerprint(m_plain)
    identical = (fp == _metrics_fingerprint(m_sample)
                 == _metrics_fingerprint(m_full))
    base = min(plain)
    sample_wall, full_wall = min(sampled), min(full)
    return {
        "baseline_wall_seconds": round(base, 4),
        "sample_wall_seconds": round(sample_wall, 4),
        "full_wall_seconds": round(full_wall, 4),
        "sample_overhead_pct": round((sample_wall - base) / base * 100.0, 2)
        if base > 0 else None,
        "full_overhead_pct": round((full_wall - base) / base * 100.0, 2)
        if base > 0 else None,
        "simulated_metrics_identical": identical,
    }


def run_benchmark(smoke: bool = False, nodes: int = 8, seed: int = 7,
                  repeats: int = 1, trace_dir: str = None,
                  measure_obs: bool = False,
                  measure_sanitizer: bool = False) -> Dict:
    """Run every workload in both modes; returns the BENCH_1 payload.

    ``trace_dir`` additionally re-runs each workload once (batch mode,
    untimed) with full tracing and writes ``<workload>.trace.jsonl`` plus
    ``<workload>.chrome.json`` there.  ``measure_obs`` adds a per-workload
    ``observability`` section with the tracer-disabled overhead.
    ``measure_sanitizer`` adds a ``sanitizer`` section with the sample-
    and full-level overhead (the BENCH_4 payload).
    """
    results: Dict = {
        "benchmark": "wallclock-batch-vs-per-tuple",
        "smoke": smoke,
        "nodes": nodes,
        "workloads": {},
    }
    for name, make_runner in _workloads(smoke, nodes, seed):
        # Interleave the two modes (alternating which goes first) so any
        # monotone within-process drift — allocator growth, cache churn —
        # penalizes both modes equally rather than whichever ran last.
        runs_tuple = []
        runs_batch = []
        setup_walls = []
        for r in range(repeats):
            order = (False, True) if r % 2 == 0 else (True, False)
            for batch in order:
                setup_wall, wall, metrics = _time_run(make_runner,
                                                      batch=batch)
                setup_walls.append(setup_wall)
                (runs_batch if batch else runs_tuple).append((wall, metrics))
        per_tuple_wall = min(wall for wall, _ in runs_tuple)
        batch_wall = min(wall for wall, _ in runs_batch)
        m_tuple = runs_tuple[0][1]
        m_batch = runs_batch[0][1]
        fp_tuple = _metrics_fingerprint(m_tuple)
        fp_batch = _metrics_fingerprint(m_batch)
        if fp_tuple != fp_batch:
            raise AssertionError(
                f"{name}: simulated metrics diverge between per-tuple and "
                f"batch modes\nper-tuple: {fp_tuple}\nbatch:     {fp_batch}")
        tuples = sum(it.tuples_processed for it in m_batch.iterations)
        entry = {
            "setup_wall_seconds": round(min(setup_walls), 4),
            "per_tuple_wall_seconds": round(per_tuple_wall, 4),
            "batch_wall_seconds": round(batch_wall, 4),
            "speedup": round(speedup(per_tuple_wall, batch_wall), 3),
            "tuples_processed": tuples,
            "per_tuple_tuples_per_sec": round(tuples / per_tuple_wall)
            if per_tuple_wall > 0 else None,
            "batch_tuples_per_sec": round(tuples / batch_wall)
            if batch_wall > 0 else None,
            "simulated_seconds": m_batch.total_seconds(),
            "strata": m_batch.num_iterations,
            "simulated_metrics_identical": True,
        }
        if measure_obs:
            entry["observability"] = _measure_obs_overhead(make_runner,
                                                           repeats)
        if measure_sanitizer:
            entry["sanitizer"] = _measure_sanitizer_overhead(make_runner,
                                                             repeats)
        if trace_dir:
            entry["trace_files"] = _emit_traces(make_runner, name, trace_dir)
        results["workloads"][name] = entry
    return results


def _geomean(values: List[float]) -> float:
    import math

    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_fusion_benchmark(smoke: bool = False, nodes: int = 8, seed: int = 7,
                         repeats: int = 1,
                         baseline_path: str = "BENCH_1.json") -> Dict:
    """Fused vs unfused wall clock; returns the BENCH_5 payload.

    Both sides run batch mode (the fusion pass targets the batch
    pipeline); ``fuse=False`` turns off plan fusion only — the network
    fabric fast paths run either way — so unfused here is the batch
    pipeline without fused kernels, re-measured on today's machine.  The
    run *fails* (AssertionError) if any workload's simulated-metrics
    fingerprint differs between the two — a speedup must never come from
    doing different simulated work.  When ``baseline_path`` exists, each
    workload also reports its speedup against that file's recorded
    ``batch_wall_seconds`` (the PR 1 batch-only baseline as measured when
    BENCH_1.json was produced — a cross-machine comparison, noisier than
    the same-process fused-vs-unfused ratio).
    """
    import os

    baseline: Dict = {}
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            recorded = json.load(fh)
        # Only comparable when the baseline measured the same workload
        # sizes on the same simulated cluster width.
        if (recorded.get("smoke", False) == smoke
                and recorded.get("nodes") == nodes):
            baseline = recorded.get("workloads", {})
    results: Dict = {
        "benchmark": "wallclock-fused-vs-unfused",
        "smoke": smoke,
        "nodes": nodes,
        "baseline": baseline_path if baseline else None,
        "workloads": {},
    }
    for name, make_runner in _workloads(smoke, nodes, seed):
        # Interleave fused/unfused (alternating order per repeat) so
        # monotone within-process drift penalizes both sides equally.
        runs_fused = []
        runs_plain = []
        for r in range(repeats):
            order = (False, True) if r % 2 == 0 else (True, False)
            for fuse in order:
                _, wall, metrics = _time_run(make_runner, batch=True,
                                             fuse=fuse)
                (runs_fused if fuse else runs_plain).append((wall, metrics))
        fused_wall = min(wall for wall, _ in runs_fused)
        plain_wall = min(wall for wall, _ in runs_plain)
        fp_fused = _metrics_fingerprint(runs_fused[0][1])
        fp_plain = _metrics_fingerprint(runs_plain[0][1])
        if fp_fused != fp_plain:
            raise AssertionError(
                f"{name}: simulated metrics diverge between fused and "
                f"unfused runs\nfused:   {fp_fused}\nunfused: {fp_plain}")
        entry = {
            "fused_wall_seconds": round(fused_wall, 4),
            "unfused_wall_seconds": round(plain_wall, 4),
            "speedup": round(speedup(plain_wall, fused_wall), 3),
            "simulated_seconds": runs_fused[0][1].total_seconds(),
            "strata": runs_fused[0][1].num_iterations,
            "simulated_metrics_identical": True,
        }
        recorded = baseline.get(name, {}).get("batch_wall_seconds")
        if recorded:
            entry["pr1_batch_wall_seconds"] = recorded
            entry["speedup_vs_pr1_batch"] = round(
                speedup(recorded, fused_wall), 3)
        results["workloads"][name] = entry
    results["geomean_speedup"] = round(_geomean(
        [w["speedup"] for w in results["workloads"].values()]), 3)
    vs_pr1 = [w["speedup_vs_pr1_batch"]
              for w in results["workloads"].values()
              if "speedup_vs_pr1_batch" in w]
    if vs_pr1:
        results["geomean_speedup_vs_pr1_batch"] = round(_geomean(vs_pr1), 3)
    return results


def run_absint_benchmark(smoke: bool = False, nodes: int = 8, seed: int = 7,
                         repeats: int = 1) -> Dict:
    """Proof-directed fast paths on vs off; returns the BENCH_8 payload.

    Two axes per workload, all batch+fused:

    * bare engine — ``absint=True`` (the default: infer proofs, arm the
      retraction-free operator loops) vs ``absint=False`` (the exact
      pre-analysis engine).  The on-side wall *includes* the abstract
      interpretation itself, so the reported speedup is net of the
      analysis cost.
    * ``sanitize="full"`` — same toggle.  With proofs the sanitizer
      downgrades shadow replay and the per-delta legality pass to
      polarity assertions, so this axis is where the analysis pays most.

    The run *fails* (AssertionError) if any workload's simulated-metrics
    fingerprint differs across the four configurations — a proof-directed
    fast path must never change what is computed, only how fast the
    simulator computes it.
    """
    results: Dict = {
        "benchmark": "wallclock-absint-vs-baseline",
        "smoke": smoke,
        "nodes": nodes,
        "workloads": {},
    }
    for name, make_runner in _workloads(smoke, nodes, seed):
        # Interleave on/off (alternating order per repeat) so monotone
        # within-process drift penalizes both sides equally.
        walls: Dict[tuple, List[float]] = {}
        fps: Dict[tuple, tuple] = {}
        sim = None
        for r in range(repeats):
            order = (False, True) if r % 2 == 0 else (True, False)
            for sanitize in ("off", "full"):
                for absint in order:
                    _, wall, m = _time_run(make_runner, batch=True,
                                           sanitize=sanitize, absint=absint)
                    walls.setdefault((sanitize, absint), []).append(wall)
                    fps[(sanitize, absint)] = _metrics_fingerprint(m)
                    sim = m
        base_fp = fps[("off", True)]
        for config, fp in fps.items():
            if fp != base_fp:
                raise AssertionError(
                    f"{name}: simulated metrics diverge at "
                    f"sanitize={config[0]!r} absint={config[1]}\n"
                    f"expected: {base_fp}\ngot:      {fp}")
        on_wall = min(walls[("off", True)])
        off_wall = min(walls[("off", False)])
        san_on = min(walls[("full", True)])
        san_off = min(walls[("full", False)])
        results["workloads"][name] = {
            "absint_wall_seconds": round(on_wall, 4),
            "no_absint_wall_seconds": round(off_wall, 4),
            "speedup": round(speedup(off_wall, on_wall), 3),
            "sanitized_absint_wall_seconds": round(san_on, 4),
            "sanitized_no_absint_wall_seconds": round(san_off, 4),
            "sanitized_speedup": round(speedup(san_off, san_on), 3),
            "simulated_seconds": sim.total_seconds(),
            "strata": sim.num_iterations,
            "simulated_metrics_identical": True,
        }
    results["geomean_speedup"] = round(_geomean(
        [w["speedup"] for w in results["workloads"].values()]), 3)
    results["geomean_sanitized_speedup"] = round(_geomean(
        [w["sanitized_speedup"] for w in results["workloads"].values()]), 3)
    return results


#: Configurations the telemetry benchmark times, in rotation order.
_TELEMETRY_CONFIGS = ("plain", "flight", "obs", "telemetry")


def run_telemetry_benchmark(smoke: bool = False, nodes: int = 8,
                            seed: int = 7, repeats: int = 1) -> Dict:
    """Live-telemetry overhead; returns the BENCH_7 payload.

    Four configurations per workload, all batch+fused:

    * ``plain`` — ``ExecOptions(flight=False)``, no obs: the bare engine;
    * ``flight`` — the default run path (flight recorder on, no obs):
      its overhead vs ``plain`` is the cost every run now pays;
    * ``obs`` — an ObsContext with the tracer disabled and
      ``telemetry=False``: PR 2's instrumentation shape;
    * ``telemetry`` — the same context with the sampler on (the new
      default): its overhead vs ``obs`` is the sampler's own cost.

    The run *fails* (AssertionError) if any configuration's
    simulated-metrics fingerprint differs from ``plain`` — telemetry and
    flight recording are charge-neutral by contract.  Acceptance: both
    overheads ≤ 5% on PageRank.
    """
    from repro.obs import ObsContext, Tracer

    results: Dict = {
        "benchmark": "wallclock-telemetry-overhead",
        "smoke": smoke,
        "nodes": nodes,
        "workloads": {},
    }
    configs = _TELEMETRY_CONFIGS
    for name, make_runner in _workloads(smoke, nodes, seed):
        walls: Dict[str, List[float]] = {c: [] for c in configs}
        fps: Dict[str, tuple] = {}
        sim = None
        for r in range(repeats):
            # Rotate the config order per repeat so monotone within-process
            # drift penalizes every configuration equally.
            k = r % len(configs)
            for config in configs[k:] + configs[:k]:
                if config == "plain":
                    _, wall, m = _time_run(make_runner, batch=True,
                                           flight=False)
                elif config == "flight":
                    _, wall, m = _time_run(make_runner, batch=True)
                else:
                    obs = ObsContext(tracer=Tracer(enabled=False),
                                     telemetry=(config == "telemetry"))
                    _, wall, m = _time_run(make_runner, batch=True, obs=obs,
                                           flight=False)
                walls[config].append(wall)
                fps[config] = _metrics_fingerprint(m)
                sim = m
        base_fp = fps["plain"]
        for config in configs:
            if fps[config] != base_fp:
                raise AssertionError(
                    f"{name}: simulated metrics diverge with {config} "
                    f"observability\nplain: {base_fp}\n"
                    f"{config}: {fps[config]}")
        plain = min(walls["plain"])
        flight_wall = min(walls["flight"])
        obs_wall = min(walls["obs"])
        telemetry_wall = min(walls["telemetry"])

        def _pct(measured: float, base: float):
            return (round((measured - base) / base * 100.0, 2)
                    if base > 0 else None)

        results["workloads"][name] = {
            "baseline_wall_seconds": round(plain, 4),
            "flight_wall_seconds": round(flight_wall, 4),
            "flight_overhead_pct": _pct(flight_wall, plain),
            "obs_wall_seconds": round(obs_wall, 4),
            "telemetry_wall_seconds": round(telemetry_wall, 4),
            "telemetry_overhead_pct": _pct(telemetry_wall, obs_wall),
            "simulated_seconds": sim.total_seconds(),
            "strata": sim.num_iterations,
            "simulated_metrics_identical": True,
        }
    return results


def _emit_traces(make_runner: Callable, name: str, trace_dir: str) -> Dict:
    """One fully-traced (untimed) batch run; writes JSONL + Chrome JSON."""
    import os

    from repro.obs import (JsonlSink, ObsContext, RingBufferSink, Tracer,
                           chrome_trace)

    os.makedirs(trace_dir, exist_ok=True)
    jsonl_path = os.path.join(trace_dir, f"{name}.trace.jsonl")
    chrome_path = os.path.join(trace_dir, f"{name}.chrome.json")
    obs = ObsContext(tracer=Tracer(
        sinks=[RingBufferSink(), JsonlSink(jsonl_path)]))
    try:
        make_runner()(ExecOptions(batch=True, obs=obs))
        with open(chrome_path, "w") as fh:
            json.dump(chrome_trace(obs.tracer.events()), fh)
    finally:
        obs.close()
    return {"jsonl": jsonl_path, "chrome": chrome_path}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark: batch vs per-tuple execution")
    parser.add_argument("--out", default=None,
                        help="write results JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets (CI smoke run)")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per mode (min is reported)")
    parser.add_argument("--trace-dir", default=None,
                        help="write per-workload trace files (JSONL + "
                             "Chrome trace JSON) into this directory")
    parser.add_argument("--measure-obs", action="store_true",
                        help="also measure observability overhead with the "
                             "tracer disabled (reported per workload)")
    parser.add_argument("--measure-sanitizer", action="store_true",
                        help="also measure runtime-sanitizer overhead at "
                             "sample and full level (reported per workload)")
    parser.add_argument("--fusion", action="store_true",
                        help="measure fused vs unfused execution instead of "
                             "batch vs per-tuple (the BENCH_5 payload; "
                             "fails if simulated metrics differ)")
    parser.add_argument("--telemetry", action="store_true",
                        help="measure flight-recorder and live-telemetry "
                             "overhead instead (the BENCH_7 payload; fails "
                             "if simulated metrics differ)")
    parser.add_argument("--absint", action="store_true",
                        help="measure the abstract-interpretation "
                             "proof-directed fast paths on vs off (the "
                             "BENCH_8 payload; fails if simulated metrics "
                             "differ)")
    parser.add_argument("--baseline", default="BENCH_1.json",
                        help="with --fusion: BENCH_1-format JSON whose "
                             "recorded batch_wall_seconds serve as the "
                             "PR 1 comparison point (skipped if missing)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if sum((args.fusion, args.telemetry, args.absint)) > 1:
        parser.error("--fusion, --telemetry and --absint are mutually "
                     "exclusive")
    if args.absint:
        results = run_absint_benchmark(smoke=args.smoke, nodes=args.nodes,
                                       seed=args.seed, repeats=args.repeats)
    elif args.telemetry:
        results = run_telemetry_benchmark(smoke=args.smoke, nodes=args.nodes,
                                          seed=args.seed,
                                          repeats=args.repeats)
    elif args.fusion:
        results = run_fusion_benchmark(
            smoke=args.smoke, nodes=args.nodes, seed=args.seed,
            repeats=args.repeats,
            baseline_path=args.baseline)
    else:
        results = run_benchmark(smoke=args.smoke, nodes=args.nodes,
                                seed=args.seed, repeats=args.repeats,
                                trace_dir=args.trace_dir,
                                measure_obs=args.measure_obs,
                                measure_sanitizer=args.measure_sanitizer)
    text = json.dumps(results, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if args.absint:
        for name, row in results["workloads"].items():
            print(f"{name}: {row['speedup']}x bare "
                  f"({row['no_absint_wall_seconds']}s -> "
                  f"{row['absint_wall_seconds']}s), "
                  f"{row['sanitized_speedup']}x sanitized "
                  f"({row['sanitized_no_absint_wall_seconds']}s -> "
                  f"{row['sanitized_absint_wall_seconds']}s)")
        print(f"geomean: {results['geomean_speedup']}x bare, "
              f"{results['geomean_sanitized_speedup']}x sanitized")
    elif args.telemetry:
        for name, row in results["workloads"].items():
            print(f"{name}: flight {row['flight_overhead_pct']}% "
                  f"({row['baseline_wall_seconds']}s -> "
                  f"{row['flight_wall_seconds']}s), telemetry "
                  f"{row['telemetry_overhead_pct']}% "
                  f"({row['obs_wall_seconds']}s -> "
                  f"{row['telemetry_wall_seconds']}s)")
    elif args.fusion:
        for name, row in results["workloads"].items():
            vs_pr1 = (f", {row['speedup_vs_pr1_batch']}x vs PR 1 batch"
                      if "speedup_vs_pr1_batch" in row else "")
            print(f"{name}: {row['speedup']}x "
                  f"({row['unfused_wall_seconds']}s -> "
                  f"{row['fused_wall_seconds']}s{vs_pr1})")
        print(f"geomean: {results['geomean_speedup']}x fused vs unfused")
    else:
        for name, row in results["workloads"].items():
            print(f"{name}: {row['speedup']}x "
                  f"({row['per_tuple_wall_seconds']}s -> "
                  f"{row['batch_wall_seconds']}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
