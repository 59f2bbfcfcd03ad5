"""Command-line interface: run RQL queries against CSV files.

Example::

    python -m repro.cli \\
        --table graph=edges.csv --key graph=srcId \\
        --nodes 4 \\
        "SELECT srcId, count(*) FROM graph GROUP BY srcId"

CSV headers name the columns; a header entry may carry an explicit type
(``srcId:Integer``), otherwise the type is inferred from the first data
row (int -> Integer, float -> Double, else Varchar).  ``--explain`` prints
the optimized plan instead of executing.

Five subcommands wrap the analysis and observability subsystems:

    python -m repro.cli analyze --table graph=edges.csv "SELECT ..."
    python -m repro.cli lint src [--format json]
    python -m repro.cli check --workload pagerank --perturbations 3
    python -m repro.cli telemetry --workload pagerank [--format json]
    python -m repro.cli flight flight-*.json [--format json]

``analyze`` prints the plan diagnostics without executing (exit 1 when
any are error-level); ``lint`` runs the simulator-invariant linter over
source trees; ``check`` runs the determinism checker — the same built-in
workload executed under K seeded schedule perturbations, diffed for
result races (REX205/REX206, exit 1 on a race); ``telemetry`` runs a
built-in workload with live telemetry attached and exports the metrics
registry (OpenMetrics text or JSON); ``flight`` summarizes flight-recorder
post-mortem bundles.  Plain query runs refuse plans with error-level
diagnostics unless ``--force`` is given (the bypassed report is still
printed to stderr and attached to the trace), ``--sanitize=sample|full``
turns on the runtime delta sanitizer (REX200-REX204, exit 1 on
violations), ``--telemetry FILE`` exports the run's metrics registry, and
``--flight-dir DIR`` names where post-mortem bundles land.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Any, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.common.errors import ReproError
from repro.obs import (JsonlSink, ObsContext, RingBufferSink, Tracer,
                       chrome_trace, explain_analyze)
from repro.rql.api import RQLSession
from repro.runtime.executor import ExecOptions


def _parse_value(text: str) -> Any:
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _infer_type(value: Any) -> str:
    if isinstance(value, int):
        return "Integer"
    if isinstance(value, float):
        return "Double"
    return "Varchar"


def load_csv(path: str) -> Tuple[List[str], List[tuple]]:
    """Read a CSV file into (schema specs, rows)."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ReproError(f"{path}: empty CSV file") from None
        raw_rows = [tuple(_parse_value(cell) for cell in row)
                    for row in reader if row]
    specs: List[str] = []
    for i, column in enumerate(header):
        column = column.strip()
        if ":" in column:
            specs.append(column)
        else:
            sample = next((r[i] for r in raw_rows if i < len(r)
                           and r[i] is not None), "")
            specs.append(f"{column}:{_infer_type(sample)}")
    # Integer columns may need float coercion for Double declarations.
    return specs, raw_rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Run RQL queries on CSV data over a simulated cluster.")
    parser.add_argument("query", help="RQL query text (or @file to read "
                                      "the query from a file)")
    parser.add_argument("--table", action="append", default=[],
                        metavar="NAME=FILE.csv",
                        help="load a CSV file as a table (repeatable)")
    parser.add_argument("--key", action="append", default=[],
                        metavar="NAME=COLUMN",
                        help="partition a table by a column (repeatable)")
    parser.add_argument("--nodes", type=int, default=4,
                        help="number of simulated worker nodes (default 4)")
    parser.add_argument("--replication", type=int, default=1,
                        help="storage replication factor (default 1)")
    parser.add_argument("--max-strata", type=int, default=200,
                        help="recursion bound (default 200)")
    parser.add_argument("--explain", action="store_true",
                        help="print the optimized plan instead of running")
    parser.add_argument("--metrics", action="store_true",
                        help="print simulated runtime metrics")
    parser.add_argument("--limit", type=int, default=None,
                        help="print at most N result rows")
    parser.add_argument("--trace", metavar="FILE.jsonl", default=None,
                        help="write structured trace events as JSON lines")
    parser.add_argument("--trace-chrome", metavar="FILE.json", default=None,
                        help="write a Chrome trace-event / Perfetto JSON "
                             "file (load at ui.perfetto.dev)")
    parser.add_argument("--analyze", action="store_true",
                        help="print an EXPLAIN ANALYZE report (per-operator "
                             "cost table and per-stratum timeline) after "
                             "the query runs")
    parser.add_argument("--force", action="store_true",
                        help="execute even if static analysis reports "
                             "error-level diagnostics")
    parser.add_argument("--sanitize", choices=("off", "sample", "full"),
                        default="off",
                        help="runtime delta sanitizer level (REX200-REX204; "
                             "default off)")
    parser.add_argument("--sanitize-seed", type=int, default=0,
                        help="seed for the sanitizer's sampling (default 0)")
    parser.add_argument("--telemetry", metavar="FILE", default=None,
                        help="export the run's metrics registry: OpenMetrics"
                             " text ('-' for stdout; a .json suffix switches"
                             " to a JSON snapshot)")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="directory for flight-recorder post-mortem "
                             "bundles (default: $REX_FLIGHT_DIR; with "
                             "neither set, bundles stay in memory)")
    return parser


def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli analyze",
        description="Statically analyze a query plan without executing it.")
    parser.add_argument("query", help="RQL query text (or @file)")
    parser.add_argument("--table", action="append", default=[],
                        metavar="NAME=FILE.csv",
                        help="load a CSV file as a table (repeatable)")
    parser.add_argument("--key", action="append", default=[],
                        metavar="NAME=COLUMN",
                        help="partition a table by a column (repeatable)")
    parser.add_argument("--nodes", type=int, default=4,
                        help="number of simulated worker nodes (default 4)")
    parser.add_argument("--no-optimize", action="store_true",
                        help="analyze the raw compiler output (exchanges "
                             "are added as the lowering would)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format")
    return parser


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli lint",
        description="Run the simulator-invariant linter (REX1xx codes).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format")
    return parser


def build_check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli check",
        description="Determinism check: run a built-in workload under "
                    "seeded schedule perturbations and diff the results "
                    "(REX205/REX206).")
    parser.add_argument("--workload", choices=BUILTIN_WORKLOADS,
                        default="pagerank",
                        help="built-in workload (fig06 is PageRank on the "
                             "DBpedia-like generator, the Figure 6 plan)")
    parser.add_argument("--perturbations", type=int, default=3,
                        help="number of perturbed runs (default 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="perturbation seed family (default 0)")
    parser.add_argument("--nodes", type=int, default=4,
                        help="simulated worker nodes (default 4)")
    parser.add_argument("--scale", type=int, default=200,
                        help="vertices (graphs) or points (kmeans); "
                             "default 200")
    parser.add_argument("--data-seed", type=int, default=7,
                        help="synthetic dataset seed (default 7)")
    parser.add_argument("--no-minimize", action="store_true",
                        help="skip per-exchange race minimization")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    return parser


#: Workload names accepted by ``check`` and ``telemetry``.
BUILTIN_WORKLOADS = ("pagerank", "fig06", "sssp", "kmeans")


def _builtin_plan(workload: str, cluster: Cluster, scale: int,
                  data_seed: int):
    """Create a built-in workload's tables on ``cluster``; returns
    ``(plan, max_strata)`` — shared by the ``check`` and ``telemetry``
    subcommands (fig06 is PageRank on the DBpedia-like generator, the
    Figure 6 plan)."""
    from repro.algorithms.kmeans import kmeans_plan
    from repro.algorithms.pagerank import pagerank_plan
    from repro.algorithms.sssp import make_start_table, sssp_plan
    from repro.datasets import dbpedia_like, geo_points, sample_centroids

    if workload in ("pagerank", "fig06"):
        edges = dbpedia_like(scale, avg_out_degree=4.0, seed=data_seed)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             edges, "srcId")
        return pagerank_plan(mode="delta", tol=0.01), 60
    if workload == "sssp":
        edges = dbpedia_like(scale, avg_out_degree=4.0, seed=data_seed)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             edges, "srcId")
        make_start_table(cluster, edges[0][0] if edges else 0)
        return sssp_plan(), 200
    points = geo_points(scale, n_clusters=4, seed=data_seed)
    centroids = sample_centroids(points, 4, seed=data_seed + 1)
    cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                         points, "pid")
    cluster.create_table("centroids0",
                         ["cid:Integer", "x:Double", "y:Double"],
                         centroids, "cid")
    return kmeans_plan(), 120


def main_check(argv: List[str]) -> int:
    from repro.analysis.determinism import check_determinism
    from repro.runtime.executor import QueryExecutor

    args = build_check_parser().parse_args(argv)
    if args.perturbations < 1:
        print("error: --perturbations must be >= 1", file=sys.stderr)
        return 2

    # Each run builds a fresh cluster: perturbed schedules must not see
    # state left behind by the baseline.
    def run_query(perturb):
        cluster = Cluster(args.nodes)
        plan, max_strata = _builtin_plan(args.workload, cluster,
                                         args.scale, args.data_seed)
        opts = ExecOptions(perturb=perturb, max_strata=max_strata)
        return QueryExecutor(cluster, opts).execute(plan)

    outcome = check_determinism(run_query,
                                perturbations=args.perturbations,
                                seed=args.seed,
                                minimize=not args.no_minimize)
    if args.format == "json":
        print(json.dumps(outcome.to_json(), indent=2))
    else:
        print(f"{args.workload}: {outcome.runs} perturbed run(s), "
              f"{'RACES FOUND' if outcome.has_races else 'deterministic'}")
        if outcome.suspects:
            print("suspect exchange(s): " + ", ".join(outcome.suspects))
        print(outcome.report.format())
        if outcome.flight_path:
            print(f"flight bundle written: {outcome.flight_path}")
    return 1 if outcome.has_races else 0


def build_telemetry_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli telemetry",
        description="Run a built-in workload with live telemetry attached "
                    "and export the metrics registry (OpenMetrics text "
                    "exposition or a JSON snapshot).")
    parser.add_argument("--workload", choices=BUILTIN_WORKLOADS,
                        default="pagerank",
                        help="built-in workload (default pagerank)")
    parser.add_argument("--nodes", type=int, default=4,
                        help="simulated worker nodes (default 4)")
    parser.add_argument("--scale", type=int, default=200,
                        help="vertices (graphs) or points (kmeans); "
                             "default 200")
    parser.add_argument("--data-seed", type=int, default=7,
                        help="synthetic dataset seed (default 7)")
    parser.add_argument("--interval", type=float, default=None,
                        help="simulated seconds between clock-grid samples "
                             "(default 0.25)")
    parser.add_argument("--prefix", default="",
                        help="export only metrics under this dotted prefix "
                             "(e.g. 'telemetry.'; default: everything)")
    parser.add_argument("--format", choices=("openmetrics", "json"),
                        default="openmetrics", help="output format")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write to FILE instead of stdout")
    parser.add_argument("--analyze", action="store_true",
                        help="also print EXPLAIN ANALYZE (with the "
                             "telemetry sparklines) to stderr")
    return parser


def main_telemetry(argv: List[str]) -> int:
    from repro.obs.export import openmetrics, registry_json
    from repro.obs.timeseries import DEFAULT_INTERVAL
    from repro.runtime.executor import QueryExecutor

    args = build_telemetry_parser().parse_args(argv)
    cluster = Cluster(args.nodes)
    plan, max_strata = _builtin_plan(args.workload, cluster, args.scale,
                                     args.data_seed)
    interval = (args.interval if args.interval is not None
                else DEFAULT_INTERVAL)
    obs = ObsContext(telemetry_interval=interval)
    options = ExecOptions(max_strata=max_strata, obs=obs)
    try:
        result = QueryExecutor(cluster, options).execute(plan)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        obs.close()
    if args.format == "json":
        text = registry_json(obs.registry, args.prefix)
        if not text.endswith("\n"):
            text += "\n"
    else:
        text = openmetrics(obs.registry, args.prefix)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.analyze:
        print(explain_analyze(obs, result.metrics), file=sys.stderr)
    return 0


def build_flight_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli flight",
        description="Inspect flight-recorder post-mortem bundles written "
                    "on a crash, sanitizer trip, or determinism race.")
    parser.add_argument("bundles", nargs="+", metavar="BUNDLE.json",
                        help="bundle file(s) to summarize")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--events", type=int, default=8,
                        help="breadcrumb notes shown per bundle in text "
                             "mode (default 8)")
    return parser


def main_flight(argv: List[str]) -> int:
    from repro.obs.flight import format_summary, load_bundle, summarize

    args = build_flight_parser().parse_args(argv)
    summaries = []
    status = 0
    for path in args.bundles:
        try:
            doc = load_bundle(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        if args.format == "json":
            summaries.append({"path": path, **summarize(doc)})
        else:
            if summaries:
                print()
            summaries.append(path)
            print(f"{path}:")
            print(format_summary(doc, events=args.events))
    if args.format == "json":
        print(json.dumps(summaries, indent=2, default=str))
    return status


def _build_cluster(args) -> Optional[Cluster]:
    """Shared --table/--key loading; returns None after printing usage."""
    keys = {}
    for spec in args.key:
        name, _, column = spec.partition("=")
        keys[name] = column
    cluster = Cluster(args.nodes)
    for spec in args.table:
        name, _, path = spec.partition("=")
        if not path:
            print(f"error: --table expects NAME=FILE.csv, got {spec!r}",
                  file=sys.stderr)
            return None
        schema, rows = load_csv(path)
        cluster.create_table(name, schema, rows,
                             partition_key=keys.get(name),
                             replication=getattr(args, "replication", 1))
    return cluster


def _read_query(query: str) -> str:
    if query.startswith("@"):
        with open(query[1:]) as f:
            return f.read()
    return query


def main_analyze(argv: List[str]) -> int:
    from repro.analysis.absint import properties_report
    from repro.analysis.diagnostics import to_sarif
    from repro.analysis.lineage import lineage_report
    from repro.optimizer.exchanges import add_exchanges
    from repro.optimizer.fusion import fusion_report
    from repro.optimizer.physical import lower
    from repro.optimizer.rewrite import rewrite_report

    args = build_analyze_parser().parse_args(argv)
    cluster = _build_cluster(args)
    if cluster is None:
        return 2
    session = RQLSession(cluster, optimize=not args.no_optimize)
    query = _read_query(args.query)
    try:
        report = session.analyze(query)
        # The fusion and abstract-interpretation passes run on the lowered
        # physical plan; surface their per-chain / per-node verdicts
        # alongside the diagnostics so the report shows what the executor
        # will actually collapse and fast-path.
        node = session.logical_plan(query)
        if not session.optimize:
            node = add_exchanges(node)
        physical_root = lower(node).root
        fusion = fusion_report(physical_root)
        properties = properties_report(physical_root)
        table_arity = {name: len(cluster.catalog.get(name).schema.fields)
                       for name in cluster.catalog.names()}
        lineage = lineage_report(physical_root, table_arity=table_arity)
        rewrites = rewrite_report(physical_root, table_arity=table_arity)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = json.loads(report.to_json())
        payload["fusion"] = fusion
        payload["properties"] = properties
        payload["lineage"] = lineage
        payload["rewrites"] = rewrites
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        print(to_sarif(report, tool_name="repro-analyze"))
    else:
        print(report.format())
        if properties:
            print()
            print("inferred properties (physical plan)")
            for p in properties:
                notes = [f"Δ={p['polarity']}" + ("" if p["exact"] else "?")]
                if "monotone" in p:
                    notes.append("monotone" if p["monotone"]
                                 else "non-monotone")
                if "key_preserving" in p and not p["key_preserving"]:
                    notes.append("key-destroying")
                if "dead_kinds" in p:
                    notes.append("dead={" + ",".join(p["dead_kinds"]) + "}")
                print(f"  {p['path']}: " + " ".join(notes))
        if lineage:
            print()
            print("column lineage (physical plan)")
            for n in lineage:
                live = ("all?" if not n["live_exact"]
                        else "{" + ",".join(map(str, n["live"])) + "}")
                width = f"/{n['out_arity']}" if "out_arity" in n else ""
                print(f"  {n['path']}: live={live}{width}")
        if rewrites:
            print()
            print("rewrite decisions (physical plan)")
            for d in rewrites:
                verdict = "applied" if d["applied"] else "declined"
                print(f"  {d['path']}: {d['kind']} {verdict} — "
                      f"{d['reason']}")
        if fusion:
            print()
            print("fusion decisions (physical plan)")
            for d in fusion:
                verdict = d["label"] if d["fused"] else "not fused"
                print(f"  {d['path']}: {verdict} — {d['reason']}")
    return 1 if report.has_errors() else 0


def main_lint(argv: List[str]) -> int:
    from repro.analysis.diagnostics import to_sarif
    from repro.analysis.lint import lint_paths

    args = build_lint_parser().parse_args(argv)
    report = lint_paths(args.paths or ["src"])
    if args.format == "json":
        print(report.to_json(indent=2))
    elif args.format == "sarif":
        print(to_sarif(report, tool_name="repro-lint"))
    else:
        print(report.format())
    return 1 if report else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "analyze":
        return main_analyze(argv[1:])
    if argv and argv[0] == "lint":
        return main_lint(argv[1:])
    if argv and argv[0] == "check":
        return main_check(argv[1:])
    if argv and argv[0] == "telemetry":
        return main_telemetry(argv[1:])
    if argv and argv[0] == "flight":
        return main_flight(argv[1:])

    args = build_parser().parse_args(argv)
    query = _read_query(args.query)

    cluster = _build_cluster(args)
    if cluster is None:
        return 2

    session = RQLSession(cluster)
    obs = None
    if args.trace or args.trace_chrome or args.analyze or args.telemetry:
        sinks = [RingBufferSink()]
        if args.trace:
            sinks.append(JsonlSink(args.trace))
        obs = ObsContext(tracer=Tracer(sinks=sinks))
    try:
        if args.explain:
            print(session.explain(query, with_estimates=True,
                                  with_diagnostics=True))
            return 0
        options = ExecOptions(max_strata=args.max_strata, obs=obs,
                              sanitize=args.sanitize,
                              sanitize_seed=args.sanitize_seed,
                              flight_dir=args.flight_dir)
        result = session.execute(query, options, check=not args.force)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        flight_path = getattr(exc, "rex_flight_path", None)
        if flight_path:
            print(f"flight bundle written: {flight_path}", file=sys.stderr)
        return 1
    finally:
        if obs is not None:
            obs.close()  # flush the JSONL sink even on error

    suppressed = result.suppressed_diagnostics
    if suppressed is not None and suppressed:
        print("-- static analysis bypassed by --force --", file=sys.stderr)
        print(suppressed.format(), file=sys.stderr)

    rows = result.rows
    shown = rows if args.limit is None else rows[:args.limit]
    for row in shown:
        print("\t".join("" if v is None else str(v) for v in row))
    if args.limit is not None and len(rows) > args.limit:
        print(f"... ({len(rows) - args.limit} more rows)", file=sys.stderr)
    if args.metrics:
        m = result.metrics
        print(f"-- {len(rows)} rows, {m.num_iterations} iterations, "
              f"{m.total_seconds():.4f}s simulated, "
              f"{m.total_bytes()} bytes shuffled", file=sys.stderr)
    if obs is not None:
        if args.telemetry:
            from repro.obs.export import openmetrics, registry_json
            text = (registry_json(obs.registry) + "\n"
                    if args.telemetry.endswith(".json")
                    else openmetrics(obs.registry))
            if args.telemetry == "-":
                sys.stdout.write(text)
            else:
                with open(args.telemetry, "w") as fh:
                    fh.write(text)
        if args.trace_chrome:
            with open(args.trace_chrome, "w") as fh:
                json.dump(chrome_trace(obs.tracer.events()), fh)
        if args.analyze:
            from repro.analysis.absint import properties_report
            from repro.analysis.lineage import lineage_report
            try:
                diagnostics = session.analyze(query)
                properties = properties_report(
                    session.logical_plan(query))
                lineage = lineage_report(session.logical_plan(query))
            except ReproError:
                diagnostics = None
                properties = None
                lineage = None
            print(file=sys.stderr)
            print(explain_analyze(obs, result.metrics,
                                  diagnostics=diagnostics,
                                  properties=properties,
                                  lineage=lineage), file=sys.stderr)
    sanitizer = result.sanitizer
    if sanitizer is not None:
        print(f"-- sanitizer ({sanitizer.level}): {sanitizer.checks} "
              f"checks, {sanitizer.violations} violation(s) --",
              file=sys.stderr)
        if sanitizer.report:
            print(sanitizer.report.format(), file=sys.stderr)
        if sanitizer.report.has_errors():
            flight = result.flight
            if flight is not None and flight.last_path:
                print(f"flight bundle written: {flight.last_path}",
                      file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
