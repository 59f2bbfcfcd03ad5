"""The public query interface: RQL text in, results out.

A :class:`RQLSession` binds a cluster, a UDF registry, and an optimizer,
mirroring the paper's requestor-node flow: parse, compile, optimize,
disseminate, execute, union results.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.analysis import analyze_logical
from repro.analysis.diagnostics import DiagnosticReport
from repro.cluster.cluster import Cluster
from repro.optimizer.exchanges import add_exchanges
from repro.operators.expressions import make_row_fn
from repro.optimizer.explain import explain as explain_plan
from repro.optimizer.logical import LGroupBy, LNode, LProject
from repro.optimizer.physical import lower
from repro.optimizer.planner import Optimizer
from repro.common.errors import PlanValidationError, TypeCheckError
from repro.rql import ast as rql_ast
from repro.rql.compiler import compile_query
from repro.rql.parser import parse
from repro.runtime.executor import ExecOptions, QueryExecutor, QueryResult
from repro.udf.registry import UDFRegistry


class RQLSession:
    """Executes RQL queries against one cluster."""

    def __init__(self, cluster: Cluster,
                 registry: Optional[UDFRegistry] = None,
                 optimize: bool = True):
        self.cluster = cluster
        self.registry = registry or UDFRegistry()
        self.optimize = optimize
        self.optimizer = Optimizer(cluster)

    def register(self, obj: Any, name: Optional[str] = None) -> str:
        """Register user code (UDF, UDA, join/while delta handler).

        Like the paper's direct use of class files, no DDL is needed —
        anything shaped like a function or handler is introspected.
        """
        return self.registry.register(obj, name)

    def _split_presentation(self, query):
        """Strip top-level ORDER BY / LIMIT; they are applied at the
        requestor after result collection."""
        import dataclasses

        if isinstance(query, rql_ast.Select) and (query.order_by
                                                  or query.limit is not None):
            presentation = (query.order_by, query.limit)
            stripped = dataclasses.replace(query, order_by=(), limit=None)
            return stripped, presentation
        return query, None

    def _apply_presentation(self, rows, schema, presentation):
        order_by, limit = presentation
        for item in reversed(order_by):
            index = schema.index_of(item.name.text)
            rows = sorted(rows,
                          key=lambda r: (r[index] is None, r[index]),
                          reverse=item.descending)
        if limit is not None:
            rows = rows[:limit]
        return list(rows)

    @staticmethod
    def _empty_aggregate_row(node: LNode) -> Optional[Tuple]:
        """The row a global aggregate (aggregates, no GROUP BY) returns
        over empty input, as in SQL: each aggregate's result over no rows
        (COUNT gives 0, the other built-ins None) passed through the
        select-list projection.  ``None`` for any other query shape.

        ``node`` is the compiler's output, where such a query is always
        a projection directly over a keyless group-by."""
        if not (isinstance(node, LProject)
                and isinstance(node.children[0], LGroupBy)
                and not node.children[0].keys):
            return None
        groupby = node.children[0]
        empty = []
        for agg in groupby.aggs:
            aggregator = agg.aggregator_factory()
            empty.append(aggregator.agg_result(aggregator.init_state()))
        project = make_row_fn([expr for expr, _ in node.items],
                              groupby.schema)
        return project(tuple(empty))

    def logical_plan(self, text: str,
                     fixpoint_handler: Optional[str] = None):
        """Parse and compile to an (optimized) logical plan.

        ``fixpoint_handler`` names a registered while-state delta handler
        to attach to the query's fixpoint (Section 3.3's fourth handler
        form) — e.g. monotone-min refinement for shortest paths, where
        plain keyed replacement would let a later, longer path overwrite
        the source's distance.
        """
        query, _ = self._split_presentation(parse(text))
        node = compile_query(query, self.cluster.catalog, self.registry)
        if fixpoint_handler is not None:
            from repro.optimizer.logical import LFixpoint

            if not isinstance(node, LFixpoint):
                raise TypeCheckError(
                    "fixpoint_handler given but the query is not recursive")
            node.while_handler_factory = \
                self.registry.while_handler_factory(fixpoint_handler)
        if self.optimize:
            node = self.optimizer.optimize(node)
        return node

    def analyze(self, text: str,
                fixpoint_handler: Optional[str] = None) -> DiagnosticReport:
        """Statically analyze a query's chosen plan without executing it.

        Runs every ``repro.analysis`` rule pass over the optimized
        logical tree and returns the diagnostic report.  When the session
        was built with ``optimize=False`` the compiler output has no
        exchanges yet, so partitioning is checked against the tree the
        lowering would actually produce (``add_exchanges``).
        """
        node = self.logical_plan(text, fixpoint_handler=fixpoint_handler)
        if not self.optimize:
            node = add_exchanges(node)
        return analyze_logical(node)

    def explain(self, text: str, with_estimates: bool = False,
                with_diagnostics: bool = False) -> str:
        """Render the chosen plan as a tree (Figure 1 style)."""
        node = self.logical_plan(text)
        estimator = self.optimizer.estimator if with_estimates else None
        rendered = explain_plan(node, estimator)
        if with_diagnostics:
            report = analyze_logical(
                node if self.optimize else add_exchanges(node))
            rendered += "\n-- diagnostics --\n" + report.format()
        return rendered

    def execute(self, text: str,
                options: Optional[ExecOptions] = None,
                fixpoint_handler: Optional[str] = None,
                check: bool = True) -> QueryResult:
        """Run a query to completion and return rows plus metrics.

        Before execution the plan goes through static analysis; plans
        with error-level diagnostics are refused with
        :class:`PlanValidationError` unless ``check=False`` (the CLI's
        ``--force``).  A forced run does not discard the evidence: the
        full report rides on ``QueryResult.suppressed_diagnostics`` and
        is stamped into the trace stream (``analysis.suppressed``) so a
        bypassed error is visible in the JSONL record of the run, not
        just on the terminal of whoever typed ``--force``.  Top-level
        ``ORDER BY`` / ``LIMIT`` are applied at the requestor over the
        unioned result (presentation only; execution is unordered, as in
        any distributed engine).  A global aggregate over empty input
        returns its one SQL row, built here at the requestor (no
        simulated resource is charged for it).
        """
        query, presentation = self._split_presentation(parse(text))
        node = compiled = compile_query(query, self.cluster.catalog,
                                        self.registry)
        if fixpoint_handler is not None:
            from repro.optimizer.logical import LFixpoint

            if not isinstance(node, LFixpoint):
                raise TypeCheckError(
                    "fixpoint_handler given but the query is not recursive")
            node.while_handler_factory = \
                self.registry.while_handler_factory(fixpoint_handler)
        if self.optimize:
            node = self.optimizer.optimize(node)
        report = analyze_logical(
            node if self.optimize else add_exchanges(node))
        if check and report.has_errors():
            raise PlanValidationError(
                "plan failed static analysis (pass check=False / "
                "--force to run anyway)",
                diagnostics=report.errors)
        plan = lower(node)
        executor = QueryExecutor(self.cluster, options)
        result = executor.execute(plan)
        if not check and report:
            result.suppressed_diagnostics = report
            obs = options.obs if options is not None else None
            if obs is not None and obs.tracer is not None:
                obs.tracer.instant(
                    "analysis.suppressed", "analysis", -1,
                    errors=len(report.errors),
                    warnings=len(report.warnings),
                    codes=report.codes())
        if (not result.rows and isinstance(query, rql_ast.Select)
                and executor.options.collect_result):
            row = self._empty_aggregate_row(compiled)
            if row is not None:
                result.rows = [row]
        if presentation is not None:
            result.rows = self._apply_presentation(result.rows, node.schema,
                                                   presentation)
        return result
