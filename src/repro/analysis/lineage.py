"""Column-lineage & UDF-effect analysis (REX400-407).

Where :mod:`repro.analysis.absint` abstracts *which delta kinds* flow
along each plan edge, this pass abstracts *which columns* do.  Two
directions compose:

* **arity inference** (bottom-up) — how many columns each node's output
  rows carry.  Scans take their width from the catalog (when the caller
  supplies a ``table_arity`` map), projections from their row function's
  tuple-literal return, handler joins from the handler's declared
  ``out_types``; anything else is widened to "unknown".
* **demand propagation** (top-down) — which output positions are *live*,
  i.e. read by at least one downstream consumer.  The query result
  demands every column; a Project demands exactly its row function's
  read-set; a GroupBy demands its key function's and aggregate
  arguments' read-sets; a handler join widens both inputs (bucket
  contents escape into the handler opaquely).  Feedback edges are
  iterated to a fixed point exactly as absint does.

Read-sets come from :mod:`repro.analysis.effects` — an AST extraction
over the callable's source — cross-checked against any declared
``reads=`` metadata on UDFs and delta handlers.  The demand abstraction
:class:`Live` carries an ``exact`` bit with the same soundness contract
as absint's :class:`~repro.analysis.absint.Polarity`: verdicts are
built only on exact facts; an escape or an opaque callable
widens to "assume everything is read" and the pass stays silent.

Verdicts:

* **REX400** — a producer's output column is never read downstream.
* **REX401** — a body reads an attribute its ``reads=`` omits.
* **REX402** — a ``reads=`` declaration names an attribute the body
  provably never reads (exact extractions only).
* **REX403** — a key function reads a position beyond its input's known
  arity: the key column was projected away upstream (error).
* **REX404** — a rewrite candidate is blocked: the blocking effect
  (impurity, unknown reads, non-insert polarity) is named.
* **REX405** — filter pushdown would be legal below the node.
* **REX406** — projection narrowing would be legal through the exchange.
* **REX407** — an opaque callable widened the analysis.

REX404-406 are advisory: the executor runs the plan the optimizer chose
and applies none of them.  They tell the author of a hand-built plan
which rewrites they may apply themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, make
from repro.analysis.effects import (
    EffectSummary,
    OPAQUE,
    check_declaration,
    extract_effects,
    extract_handler_effects,
)
from repro.optimizer.logical import (
    LApply,
    LFeedback,
    LFilter,
    LFixpoint,
    LGroupBy,
    LJoin,
    LNode,
    LProject,
    LRehash,
    LScan,
)
from repro.runtime.plan import (
    PApply,
    PFeedback,
    PFilter,
    PFixpoint,
    PFused,
    PGroupBy,
    PJoin,
    PNode,
    PProject,
    PRehash,
    PScan,
    PhysicalPlan,
)

#: Upper bound on feedback-demand iterations.  Demand sets only grow and
#: the exact bit only clears, so the loop converges quickly; 8 matches
#: absint's cap.
MAX_PASSES = 8


@dataclass(frozen=True)
class Live:
    """The demand abstraction for one plan edge.

    ``exact=True`` means *exactly* the positions in ``cols`` are read by
    downstream consumers — a proof dead-column verdicts and narrowing
    rewrites may be built on.  ``exact=False`` means the demand is
    unknown (a row escaped into an opaque consumer): every position must
    be assumed live and ``cols`` is meaningless.
    """

    cols: FrozenSet[int] = frozenset()
    exact: bool = True

    def join(self, other: "Live") -> "Live":
        return Live(self.cols | other.cols, self.exact and other.exact)

    def widened(self) -> "Live":
        return Live(self.cols, False)

    @property
    def name(self) -> str:
        if not self.exact:
            return "all?"
        if not self.cols:
            return "∅"
        return "{" + ",".join(str(c) for c in sorted(self.cols)) + "}"

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Live({self.name})"


#: Demand placed by a consumer that may read anything.
ALL = Live(frozenset(), False)
#: No demand (the bottom of the lattice; feedback iteration seed).
NONE = Live(frozenset(), True)


def live_all(arity: Optional[int]) -> Live:
    """Full demand: every position of a known width, else widened."""
    if arity is None:
        return ALL
    return Live(frozenset(range(arity)), True)


@dataclass
class NodeLineage:
    """Everything the analysis inferred about one plan node."""

    path: str
    label: str
    #: Number of columns in this node's output rows (None = unknown).
    out_arity: Optional[int]
    #: Demand on this node's *output* edge (what downstream reads).
    live: Live
    #: Demand this node places on its input edge(s), joined.
    in_live: Optional[Live] = None
    #: Positions of the input row this node's own callables read.
    reads: Optional[FrozenSet[int]] = None
    reads_exact: bool = False
    #: Re-evaluation safety of this node's callables (None = n/a).
    pure: Optional[bool] = None

    def to_dict(self) -> Dict:
        doc: Dict = {
            "path": self.path,
            "label": self.label,
            "live": sorted(self.live.cols) if self.live.exact else None,
            "live_exact": self.live.exact,
        }
        if self.out_arity is not None:
            doc["out_arity"] = self.out_arity
        if self.in_live is not None:
            doc["input_live"] = (sorted(self.in_live.cols)
                                 if self.in_live.exact else None)
            doc["input_live_exact"] = self.in_live.exact
        if self.reads is not None:
            doc["reads"] = sorted(self.reads)
            doc["reads_exact"] = self.reads_exact
        if self.pure is not None:
            doc["pure"] = self.pure
        return doc

    def annotation(self) -> str:
        """Compact EXPLAIN column, e.g. ``live={0,1}/3``."""
        text = f"live={self.live.name}"
        if self.out_arity is not None:
            text += f"/{self.out_arity}"
        return text


class PlanLineage:
    """The per-node inference results for one plan, queryable by node."""

    def __init__(self, nodes: List[NodeLineage],
                 by_id: Dict[int, NodeLineage]):
        self.nodes = nodes
        self._by_id = by_id

    def of(self, node) -> Optional[NodeLineage]:
        return self._by_id.get(id(node))

    def annotation(self, node) -> str:
        lin = self.of(node)
        return lin.annotation() if lin is not None else ""

    def report(self) -> List[Dict]:
        """JSON-ready rows (what ``cli analyze --format json`` embeds
        under ``"lineage"``)."""
        return [n.to_dict() for n in self.nodes]


def _reads_live(summary: EffectSummary) -> Live:
    """A callable's read-set as the demand it places on its input."""
    if not summary.proves_reads():
        return ALL
    return Live(summary.reads, True)


def _instantiate(factory):
    try:
        return factory()
    except Exception:  # noqa: BLE001 - factories are user code
        return None


def _udf_callable(udf):
    """The row-level function behind a UDF object, for extraction."""
    inner = getattr(udf, "fn", None)
    if inner is not None and callable(inner):
        return inner
    call = getattr(type(udf), "__call__", None)
    return call if call is not None else None


# ---------------------------------------------------------------------------
# Physical pass
# ---------------------------------------------------------------------------


class _PhysicalLineage:
    """One top-down demand evaluation over a physical tree, with the
    feedback edge's demand held constant (supplied by the outer
    iteration).  Arity inference runs inline: children are evaluated
    before the parent's input demand is final, so arity (a bottom-up
    fact) is computed in :meth:`_arity` passes over the same recursion.
    """

    def __init__(self, table_arity: Optional[Dict[str, int]],
                 feedback_demand: Live, fixpoint_arity: Optional[int]):
        self.table_arity = table_arity or {}
        self.feedback_demand = feedback_demand
        self.fixpoint_arity = fixpoint_arity
        #: Demand observed arriving at PFeedback leaves this pass.
        self.observed_feedback = NONE
        self.fixpoint_out_arity: Optional[int] = None
        self.nodes: List[NodeLineage] = []
        self.by_id: Dict[int, NodeLineage] = {}
        self.diagnostics: List[Diagnostic] = []
        self._effects_memo: Dict[int, EffectSummary] = {}

    # -- shared helpers --------------------------------------------------
    def _record(self, node, lin: NodeLineage) -> NodeLineage:
        self.nodes.append(lin)
        self.by_id[id(node)] = lin
        return lin

    def _emit(self, code: str, message: str, location: str,
              hint: str = "") -> None:
        self.diagnostics.append(make(code, message, location=location,
                                     hint=hint))

    def _effects(self, fn, **kwargs) -> EffectSummary:
        if fn is None:
            return OPAQUE
        memo = self._effects_memo.get(id(fn))
        if memo is None:
            memo = extract_effects(fn, **kwargs)
            self._effects_memo[id(fn)] = memo
        return memo

    def _note_opaque(self, what: str, path: str,
                     summary: EffectSummary) -> None:
        if summary.opaque:
            self._emit("REX407",
                       f"{what} has no retrievable source; the column "
                       "analysis assumes it reads and produces everything",
                       path,
                       hint="declare reads= metadata (or use a plain "
                            "def/lambda) to restore precision")

    def _check_key_arity(self, what: str, path: str,
                         key_reads: EffectSummary,
                         in_arity: Optional[int]) -> None:
        """REX403: the key function reads past the known input width."""
        if in_arity is None or key_reads.opaque:
            return
        beyond = {i for i in key_reads.reads if i >= in_arity}
        if beyond:
            self._emit("REX403",
                       f"{what} key function reads position"
                       f"{'s' if len(beyond) > 1 else ''} "
                       f"{sorted(beyond)} but its input rows carry only "
                       f"{in_arity} column(s): the key column was "
                       "projected away upstream",
                       path,
                       hint="keep the key column in every upstream "
                            "projection (or re-key before narrowing)")

    def _check_dead_columns(self, label: str, path: str, demand: Live,
                            out_arity: Optional[int]) -> None:
        """REX400 at a column-producing node."""
        if out_arity is None or not demand.exact:
            return
        dead = sorted(set(range(out_arity)) - demand.cols)
        if dead:
            self._emit("REX400",
                       f"column{'s' if len(dead) > 1 else ''} {dead} of "
                       f"{label} {'are' if len(dead) > 1 else 'is'} never "
                       "read by any downstream operator",
                       path,
                       hint="drop the dead column(s) from the projection")

    def _check_declared(self, what: str, path: str, obj,
                        summary: EffectSummary) -> None:
        """REX401/REX402 against a reads= declaration."""
        undeclared, overdeclared = check_declaration(obj, summary)
        if undeclared:
            self._emit("REX401",
                       f"{what} reads row position"
                       f"{'s' if len(undeclared) > 1 else ''} "
                       f"{sorted(undeclared)} not covered by its declared "
                       f"reads= metadata",
                       path,
                       hint="extend reads= to cover every attribute the "
                            "body touches; the planner trusts it")
        if overdeclared:
            self._emit("REX402",
                       f"{what} declares reads= position"
                       f"{'s' if len(overdeclared) > 1 else ''} "
                       f"{sorted(overdeclared)} that its body provably "
                       "never reads",
                       path,
                       hint="trim the declaration; stale reads= metadata "
                            "blocks narrowing rewrites for nothing")

    # -- bottom-up arity --------------------------------------------------
    def _arity(self, node: PNode) -> Optional[int]:
        if isinstance(node, PScan):
            return self.table_arity.get(node.table)
        if isinstance(node, PFeedback):
            return self.fixpoint_arity
        if isinstance(node, (PFilter, PRehash)):
            return self._arity(node.children[0])
        if isinstance(node, PProject):
            return self._effects(node.row_fn).out_arity
        if isinstance(node, PApply):
            udf = _instantiate(node.udf_factory)
            produced = (len(udf.out_types)
                        if udf is not None
                        and getattr(udf, "out_types", None) else None)
            if node.mode == "replace":
                return produced
            child = self._arity(node.children[0])
            if child is None or produced is None:
                return None
            return child + produced
        if isinstance(node, PJoin):
            if node.handler_factory is not None:
                handler = _instantiate(node.handler_factory)
                out_types = getattr(handler, "out_types", None)
                return len(out_types) if out_types else None
            left = self._arity(node.children[0])
            right = self._arity(node.children[1])
            if left is None or right is None:
                return None
            return left + right
        if isinstance(node, PGroupBy):
            key_arity = self._effects(node.key_fn).out_arity
            specs = _instantiate(node.specs_factory)
            if key_arity is None or specs is None:
                return None
            # Tuple-valued aggregate results (ArgMin over several
            # columns, CentroidAvg's (x, y) mean) still occupy one
            # output slot each: the group-by emits key + one value per
            # spec and downstream projections unpack the tuples.
            return key_arity + len(specs)
        if isinstance(node, PFused):
            width = self._arity(node.children[0]) \
                if node.children else None
            for constituent in node.constituents:
                width = self._constituent_arity(constituent, width)
            return width
        # PUnion / PFixpoint / PCollect: children must be union-compatible.
        widths = {self._arity(child) for child in node.children}
        widths.discard(None)
        return widths.pop() if len(widths) == 1 else None

    def _constituent_arity(self, constituent: PNode,
                           width: Optional[int]) -> Optional[int]:
        if isinstance(constituent, PFilter):
            return width
        if isinstance(constituent, PProject):
            return self._effects(constituent.row_fn).out_arity
        if isinstance(constituent, PApply):
            udf = _instantiate(constituent.udf_factory)
            produced = (len(udf.out_types)
                        if udf is not None
                        and getattr(udf, "out_types", None) else None)
            if constituent.mode == "replace":
                return produced
            if width is None or produced is None:
                return None
            return width + produced
        return width

    # -- top-down demand --------------------------------------------------
    def eval(self, node: PNode, demand: Live, path: str = "") -> None:
        name = type(node).__name__[1:]
        here = f"{path}/{name}" if path else name
        out_arity = self._arity(node)

        if isinstance(node, PFused):
            self._eval_fused(node, demand, here, out_arity)
            return

        reads: Optional[FrozenSet[int]] = None
        reads_exact = False
        pure: Optional[bool] = None
        in_live: Optional[Live] = None

        if isinstance(node, PScan):
            # An unused scan column is not a plan defect (base tables
            # rarely match a query's shape exactly); narrowing licenses
            # (REX406) cover the case where it costs wire bytes.  REX400
            # is reserved for *computed* columns nobody reads.
            pass
        elif isinstance(node, PFeedback):
            self.observed_feedback = self.observed_feedback.join(demand)
        elif isinstance(node, PFilter):
            summary = self._effects(node.predicate)
            self._note_opaque("filter predicate", here, summary)
            reads, reads_exact = summary.reads, summary.proves_reads()
            pure = summary.pure and not summary.opaque
            in_live = demand.join(_reads_live(summary))
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PProject):
            summary = self._effects(node.row_fn)
            self._note_opaque("projection row function", here, summary)
            self._check_dead_columns("Project", here, demand, out_arity)
            reads, reads_exact = summary.reads, summary.proves_reads()
            pure = summary.pure and not summary.opaque
            in_live = _reads_live(summary)
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PApply):
            in_live = self._eval_apply(node, demand, here, out_arity)
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PRehash):
            in_live = demand
            if node.key_fn is not None:
                summary = self._effects(node.key_fn)
                self._note_opaque("rehash key function", here, summary)
                reads, reads_exact = summary.reads, summary.proves_reads()
                child_arity = self._arity(node.children[0])
                self._check_key_arity("Rehash", here, summary, child_arity)
                in_live = demand.join(_reads_live(summary))
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PJoin):
            in_live = self._eval_join(node, demand, here)
        elif isinstance(node, PGroupBy):
            in_live = self._eval_groupby(node, demand, here)
            self.eval(node.children[0], in_live, here)
        elif isinstance(node, PFixpoint):
            in_live = self._eval_fixpoint(node, demand, here)
        else:  # PUnion, PCollect, unknown passthroughs
            in_live = demand
            for child in node.children:
                self.eval(child, demand, here)

        self._record(node, NodeLineage(
            path=here, label=name, out_arity=out_arity, live=demand,
            in_live=in_live, reads=reads, reads_exact=reads_exact,
            pure=pure))

    def _eval_apply(self, node: PApply, demand: Live, here: str,
                    out_arity: Optional[int]) -> Live:
        udf = _instantiate(node.udf_factory)
        arg_summary = self._effects(node.arg_fn)
        self._note_opaque("applyFunction argument builder", here,
                          arg_summary)
        udf_fn = _udf_callable(udf) if udf is not None else None
        udf_summary = self._effects(udf_fn)
        if udf is not None:
            self._check_declared(
                f"UDF {getattr(udf, 'name', 'udf')!r}", here, udf,
                udf_summary)
        self._check_dead_columns("ApplyFunction", here, demand, out_arity)
        in_live = _reads_live(arg_summary)
        if node.mode == "extend":
            child_arity = self._arity(node.children[0])
            if demand.exact and child_arity is not None:
                passthrough = Live(
                    frozenset(c for c in demand.cols if c < child_arity),
                    True)
            else:
                passthrough = ALL
            in_live = in_live.join(passthrough)
        return in_live

    def _eval_join(self, node: PJoin, demand: Live, here: str) -> Live:
        if node.handler_factory is not None:
            handler = _instantiate(node.handler_factory)
            summary = extract_handler_effects(type(handler)) \
                if handler is not None else OPAQUE
            if handler is not None:
                self._check_declared(
                    f"join delta handler {handler.name!r}", here, handler,
                    summary)
            # Bucket rows escape whole into the handler's bucket
            # arguments: both inputs must be assumed fully read.
            for child in node.children:
                self.eval(child, ALL, here)
            return ALL
        left_arity = self._arity(node.children[0])
        left_key = self._effects(node.left_key)
        right_key = self._effects(node.right_key)
        self._check_key_arity("Join(left)", here, left_key, left_arity)
        self._check_key_arity("Join(right)", here, right_key,
                              self._arity(node.children[1]))
        if demand.exact and left_arity is not None:
            left_demand = Live(
                frozenset(c for c in demand.cols if c < left_arity), True)
            right_demand = Live(
                frozenset(c - left_arity for c in demand.cols
                          if c >= left_arity), True)
        else:
            left_demand = right_demand = ALL
        left_demand = left_demand.join(_reads_live(left_key))
        right_demand = right_demand.join(_reads_live(right_key))
        self.eval(node.children[0], left_demand, here)
        self.eval(node.children[1], right_demand, here)
        return left_demand.join(right_demand)

    def _eval_groupby(self, node: PGroupBy, demand: Live,
                      here: str) -> Live:
        key_summary = self._effects(node.key_fn)
        self._note_opaque("group-by key function", here, key_summary)
        self._check_key_arity("GroupBy", here, key_summary,
                              self._arity(node.children[0]))
        self._check_dead_columns("GroupBy", here, demand,
                                 self._arity(node))
        in_live = _reads_live(key_summary)
        specs = _instantiate(node.specs_factory)
        if specs is None:
            return ALL
        for spec in specs:
            arg_summary = self._effects(spec.arg)
            self._note_opaque(
                f"aggregate argument of {spec.aggregator.name!r}", here,
                arg_summary)
            in_live = in_live.join(_reads_live(arg_summary))
        return in_live

    def _eval_fixpoint(self, node: PFixpoint, demand: Live,
                       here: str) -> Live:
        self.fixpoint_out_arity = self._arity(node)
        body_demand = demand.join(self.feedback_demand)
        if node.key_fn is not None:
            key_summary = self._effects(node.key_fn)
            self._note_opaque("fixpoint key function", here, key_summary)
            for child in node.children:
                self._check_key_arity("Fixpoint", here, key_summary,
                                      self._arity(child))
            body_demand = body_demand.join(_reads_live(key_summary))
        if node.while_handler_factory is not None:
            handler = _instantiate(node.while_handler_factory)
            summary = extract_handler_effects(type(handler)) \
                if handler is not None else OPAQUE
            if handler is not None:
                self._check_declared(
                    f"while delta handler {handler.name!r}", here, handler,
                    summary)
            body_demand = body_demand.join(_reads_live(summary))
        for child in node.children:
            self.eval(child, body_demand, here)
        return body_demand

    def _eval_fused(self, node: PFused, demand: Live, here: str,
                    out_arity: Optional[int]) -> None:
        # Constituents are stored upstream-first; demand flows the other
        # way, so walk them reversed, recording each constituent's own
        # output-edge demand as we go.
        current = demand
        input_widths: List[Optional[int]] = []
        width = self._arity(node.children[0]) if node.children else None
        for constituent in node.constituents:
            input_widths.append(width)
            width = self._constituent_arity(constituent, width)
        for constituent, in_width in zip(reversed(node.constituents),
                                         reversed(input_widths)):
            cname = type(constituent).__name__[1:]
            cpath = f"{here}/{cname}"
            reads: Optional[FrozenSet[int]] = None
            reads_exact = False
            pure: Optional[bool] = None
            if isinstance(constituent, PFilter):
                summary = self._effects(constituent.predicate)
                reads, reads_exact = summary.reads, summary.proves_reads()
                pure = summary.pure and not summary.opaque
                in_live = current.join(_reads_live(summary))
            elif isinstance(constituent, PProject):
                summary = self._effects(constituent.row_fn)
                reads, reads_exact = summary.reads, summary.proves_reads()
                pure = summary.pure and not summary.opaque
                in_live = _reads_live(summary)
            elif isinstance(constituent, PApply):
                in_live = self._eval_apply(
                    constituent, current, cpath,
                    self._constituent_arity(constituent, in_width))
            else:
                in_live = current
            self._record(constituent, NodeLineage(
                path=cpath, label=cname,
                out_arity=self._constituent_arity(constituent, in_width),
                live=current, in_live=in_live, reads=reads,
                reads_exact=reads_exact, pure=pure))
            current = in_live
        self._record(node, NodeLineage(
            path=here, label="Fused", out_arity=out_arity, live=demand,
            in_live=current))
        for child in node.children:
            self.eval(child, current, here)


# ---------------------------------------------------------------------------
# Logical pass
# ---------------------------------------------------------------------------


class _LogicalLineage:
    """Demand propagation over a logical tree.

    Logical nodes carry schemas, so arity is always known and read-sets
    come from bound expressions (:meth:`Expr.columns`) instead of AST
    extraction — the verdicts here are exact by construction.  Pushdown
    licenses (REX404-406) are physical-plan concerns (they reference
    exchanges and compiled callables) and are not emitted here.
    """

    def __init__(self, feedback_demand: Live):
        self.feedback_demand = feedback_demand
        self.observed_feedback = NONE
        self.nodes: List[NodeLineage] = []
        self.by_id: Dict[int, NodeLineage] = {}
        self.diagnostics: List[Diagnostic] = []

    _record = _PhysicalLineage._record
    _emit = _PhysicalLineage._emit
    _check_dead_columns = _PhysicalLineage._check_dead_columns
    _check_declared = _PhysicalLineage._check_declared

    @staticmethod
    def _columns_live(exprs, schema) -> Live:
        cols = set()
        for expr in exprs:
            for name in expr.columns():
                try:
                    cols.add(schema.index_of(name))
                except Exception:  # noqa: BLE001 - REX008 owns the report
                    return ALL
        return Live(frozenset(cols), True)

    def eval(self, node: LNode, demand: Live, path: str = "") -> None:
        name = type(node).__name__[1:]
        here = f"{path}/{name}" if path else name
        out_arity = len(node.schema.fields)
        in_live: Optional[Live] = None

        if isinstance(node, LScan):
            pass  # see the physical pass: REX400 is for computed columns
        elif isinstance(node, LFeedback):
            self.observed_feedback = self.observed_feedback.join(demand)
        elif isinstance(node, LFilter):
            child = node.children[0]
            in_live = demand.join(
                self._columns_live([node.predicate], child.schema))
            self.eval(child, in_live, here)
        elif isinstance(node, LProject):
            self._check_dead_columns(node.label(), here, demand, out_arity)
            child = node.children[0]
            if demand.exact:
                exprs = [expr for i, (expr, _) in enumerate(node.items)
                         if i in demand.cols]
            else:
                exprs = [expr for expr, _ in node.items]
            in_live = self._columns_live(exprs, child.schema)
            self.eval(child, in_live, here)
        elif isinstance(node, LApply):
            child = node.children[0]
            in_live = self._columns_live(node.args, child.schema)
            if node.mode == "extend":
                child_arity = len(child.schema.fields)
                passthrough = (Live(
                    frozenset(c for c in demand.cols if c < child_arity),
                    True) if demand.exact else ALL)
                in_live = in_live.join(passthrough)
            udf_fn = _udf_callable(node.udf)
            self._check_declared(
                f"UDF {getattr(node.udf, 'name', 'udf')!r}", here,
                node.udf, extract_effects(udf_fn)
                if udf_fn is not None else OPAQUE)
            self.eval(child, in_live, here)
        elif isinstance(node, LJoin):
            in_live = self._eval_join(node, demand, here)
        elif isinstance(node, LGroupBy):
            child = node.children[0]
            self._check_dead_columns(node.label(), here, demand, out_arity)
            key_exprs_live = Live(frozenset(
                child.schema.index_of(k) for k in node.keys
                if child.schema.has(k)), True)
            in_live = key_exprs_live
            for agg in node.aggs:
                in_live = in_live.join(
                    self._columns_live(agg.args, child.schema))
            self.eval(child, in_live, here)
        elif isinstance(node, LFixpoint):
            body_demand = demand.join(self.feedback_demand)
            if node.schema.has(node.key):
                body_demand = body_demand.join(Live(
                    frozenset({node.schema.index_of(node.key)}), True))
            if node.while_handler_factory is not None:
                handler = _instantiate(node.while_handler_factory)
                summary = extract_handler_effects(type(handler)) \
                    if handler is not None else OPAQUE
                if handler is not None:
                    self._check_declared(
                        f"while delta handler {handler.name!r}", here,
                        handler, summary)
                body_demand = body_demand.join(_reads_live(summary))
            for child in node.children:
                self.eval(child, body_demand, here)
            in_live = body_demand
        elif isinstance(node, LRehash):
            child = node.children[0]
            in_live = demand
            if node.key is not None and child.schema.has(node.key):
                in_live = in_live.join(Live(
                    frozenset({child.schema.index_of(node.key)}), True))
            self.eval(child, in_live, here)
        else:
            in_live = demand
            for child in node.children:
                self.eval(child, demand, here)

        self._record(node, NodeLineage(
            path=here, label=node.label(), out_arity=out_arity,
            live=demand, in_live=in_live))

    def _eval_join(self, node: LJoin, demand: Live, here: str) -> Live:
        if node.handler_factory is not None:
            handler = _instantiate(node.handler_factory)
            if handler is not None:
                self._check_declared(
                    f"join delta handler {handler.name!r}", here, handler,
                    extract_handler_effects(type(handler)))
            for child in node.children:
                self.eval(child, ALL, here)
            return ALL
        left, right = node.children
        left_arity = len(left.schema.fields)
        if demand.exact:
            left_demand = Live(
                frozenset(c for c in demand.cols if c < left_arity), True)
            right_demand = Live(
                frozenset(c - left_arity for c in demand.cols
                          if c >= left_arity), True)
        else:
            left_demand = right_demand = ALL
        if node.condition is not None:
            lcol, rcol = node.condition
            if left.schema.has(lcol):
                left_demand = left_demand.join(Live(
                    frozenset({left.schema.index_of(lcol)}), True))
            if right.schema.has(rcol):
                right_demand = right_demand.join(Live(
                    frozenset({right.schema.index_of(rcol)}), True))
        self.eval(left, left_demand, here)
        self.eval(right, right_demand, here)
        return left_demand.join(right_demand)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def infer_lineage(plan: Union[LNode, PhysicalPlan, PNode],
                  table_arity: Optional[Dict[str, int]] = None
                  ) -> Tuple[PlanLineage, List[Diagnostic]]:
    """Run the column-lineage analysis to a fixed point over the feedback
    edge; returns (per-node lineage, REX40x diagnostics).

    ``table_arity`` maps table names to their column counts (the
    executor supplies it from the catalog); without it scans have
    unknown width and verdicts that need it are withheld.
    """
    if isinstance(plan, LNode):
        run = None
        feedback = NONE
        for _ in range(MAX_PASSES):
            run = _LogicalLineage(feedback)
            run.eval(plan, live_all(len(plan.schema.fields)))
            merged = feedback.join(run.observed_feedback)
            if merged == feedback:
                break
            feedback = merged
        return PlanLineage(run.nodes, run.by_id), run.diagnostics

    root = plan.root if isinstance(plan, PhysicalPlan) else plan
    feedback = NONE
    fixpoint_arity: Optional[int] = None
    run = None
    for _ in range(MAX_PASSES):
        run = _PhysicalLineage(table_arity, feedback, fixpoint_arity)
        run.eval(root, live_all(run._arity(root)))
        merged = feedback.join(run.observed_feedback)
        converged = (merged == feedback
                     and run.fixpoint_out_arity == fixpoint_arity)
        fixpoint_arity = run.fixpoint_out_arity
        if converged:
            break
        feedback = merged
    lineage = PlanLineage(run.nodes, run.by_id)
    _check_rewrite_licenses(root, lineage, run.diagnostics)
    return lineage, run.diagnostics


def _check_rewrite_licenses(root: PNode, lineage: PlanLineage,
                            diagnostics: List[Diagnostic]) -> None:
    """REX404/REX405/REX406: name the rewrites the facts license (or the
    effect that blocks them).  Advisory only: nothing applies them."""
    from repro.analysis.absint import INSERT_ONLY, infer as infer_polarity

    props, _ = infer_polarity(root)

    def walk(node: PNode):
        yield node
        for child in node.children:
            yield from walk(child)

    for node in walk(root):
        lin = lineage.of(node)
        if lin is None:
            continue
        if isinstance(node, PRehash) and not node.broadcast:
            child = node.children[0]
            child_lin = lineage.of(child)
            child_arity = child_lin.out_arity if child_lin else None
            wanted = lin.in_live
            if child_arity is None or wanted is None or not wanted.exact:
                continue
            width = max(wanted.cols) + 1 if wanted.cols else 0
            if width >= child_arity:
                continue
            child_pol = props.of(child)
            if child_pol is not None \
                    and child_pol.out_polarity.proves(INSERT_ONLY):
                diagnostics.append(make(
                    "REX406",
                    f"only columns {sorted(wanted.cols)} of "
                    f"{child_arity} crossing this exchange are live "
                    "downstream; narrowing to the first "
                    f"{width} column(s) is licensed "
                    "(insert-only polarity proven)",
                    location=lin.path,
                    hint="project the stream to its first "
                         f"{width} column(s) below the exchange"))
            else:
                pol_name = (child_pol.out_polarity.name
                            if child_pol is not None else "unknown")
                diagnostics.append(make(
                    "REX404",
                    f"projection narrowing through this exchange "
                    f"(live {sorted(wanted.cols)} of {child_arity}) is "
                    f"blocked: input polarity {pol_name!r} is not "
                    "proven insert-only, so delta rows may be key-only "
                    "tuples narrower than the declared width",
                    location=lin.path,
                    hint="declare an insert-only emits_polarity on the "
                         "upstream handler if the stream truly never "
                         "replaces or updates"))
        elif isinstance(node, PFilter):
            child = node.children[0]
            if not isinstance(child, (PRehash, PProject)):
                continue
            if isinstance(child, PRehash) and child.broadcast:
                continue
            below = "the exchange" if isinstance(child, PRehash) \
                else "the projection"
            if lin.pure and lin.reads_exact:
                child_pol = props.of(child)
                if child_pol is not None \
                        and child_pol.out_polarity.proves(INSERT_ONLY):
                    diagnostics.append(make(
                        "REX405",
                        f"filter pushdown below {below} is licensed: the "
                        f"predicate is pure, reads exactly "
                        f"{sorted(lin.reads or ())}, and the stream is "
                        "proven insert-only",
                        location=lin.path,
                        hint="move the filter below "
                             f"{below} to drop rows earlier"))
                else:
                    diagnostics.append(make(
                        "REX404",
                        f"filter pushdown below {below} is blocked: the "
                        "stream's polarity is not proven insert-only "
                        "(replacement straddles would route or project "
                        "differently across the move)",
                        location=lin.path))
            else:
                blocker = ("the predicate has side effects or calls "
                           "outside the pure whitelist" if lin.pure is False
                           else "the predicate's read-set could not be "
                                "proven")
                diagnostics.append(make(
                    "REX404",
                    f"filter pushdown below {below} is blocked: "
                    f"{blocker}",
                    location=lin.path,
                    hint="keep predicates as pure single-expression "
                         "lambdas over constant row positions"))


def check_lineage(root, emit,
                  table_arity: Optional[Dict[str, int]] = None) -> None:
    """Rule-pass entry point (analyzer pipeline shape): run the
    inference and emit its diagnostics."""
    _, diagnostics = infer_lineage(root, table_arity=table_arity)
    for diag in diagnostics:
        emit(diag)


def lineage_report(plan: Union[LNode, PhysicalPlan, PNode],
                   table_arity: Optional[Dict[str, int]] = None
                   ) -> List[Dict]:
    """The inferred lineage as JSON-ready dicts (what
    ``repro.cli analyze --format json`` embeds under ``"lineage"``)."""
    lineage, _ = infer_lineage(plan, table_arity=table_arity)
    return lineage.report()
