"""Per-layer measurement for the benchmark: spans, counters, exact counts.

:class:`Tracer` records a span around each call into a layer's entry
points — name, start, end, parent span and run id — by wrapping those
entry points for the duration of the traced phase (``install`` /
``uninstall``).  Nothing in the engine is edited and ``repro.obs`` is not
used, so the benchmark keeps measuring the same boundaries when the
engine's own observability changes.  Spans stay in memory and are written
out by :meth:`Tracer.write_spans` when the run ends.

A layer's self time is a span's duration minus the time its child spans
cover; it is accumulated online as spans close.

:func:`count_calls` is the separate counting run: cProfile call counts
are exact, so the work counters it yields repeat bit-for-bit on the same
input.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import pstats
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.datasets import graphs, tpch
from repro.net.network import SimulatedNetwork
from repro.obs.flight import FlightRecorder
from repro.operators import (
    ApplyFunction,
    Collect,
    ExchangeReceiver,
    FeedbackSource,
    Filter,
    Fixpoint,
    FusedKernel,
    GroupBy,
    HashJoin,
    Project,
    RehashSender,
    TableScan,
)
from repro.optimizer import fusion, physical, rewrite
from repro.optimizer.planner import Optimizer
from repro.analysis import absint, analyzer, lineage
from repro.rql import compiler, parser
from repro.runtime.executor import QueryExecutor
from repro.udf.aggregates import JoinDeltaHandler, WhileDeltaHandler

OPERATOR_CLASSES = (TableScan, FeedbackSource, Filter, Project,
                    ApplyFunction, FusedKernel, HashJoin, GroupBy, Fixpoint,
                    RehashSender, ExchangeReceiver, Collect)
SOURCE_CLASSES = (TableScan, FeedbackSource)


def _batch(args) -> Tuple[int, int]:
    n = len(args[0]) if args and args[0] is not None else 0
    return n, 1 if n else 0


def _one(args) -> Tuple[int, int]:
    return 1, 0


def _message(args) -> Tuple[int, int]:
    n = len(args[0].deltas or ())
    return n, 1 if n else 0


# Operator entry points: method -> how many rows (and batches) one call
# carries in.  Methods without a row count only delimit the span.
OPERATOR_ENTRIES: Dict[str, Optional[Callable]] = {
    "push_batch": _batch,
    "push_block": _batch,
    "transform_batch": _batch,
    "transform_block": _batch,
    "receive": _one,
    "handle_message": _message,
    "run_stratum": None,
    "on_punctuation": None,
    "take_pending": None,
}

# Module-level functions, each wrapped wherever it is bound (a
# ``from x import f`` copy included): (module, attribute, span name).
FUNCTION_SPANS = (
    (parser, "parse", "rql.parse"),
    (compiler, "compile_query", "rql.compile"),
    (physical, "lower", "optimizer.lower"),
    (rewrite, "rewrite_plan", "optimizer.rewrite"),
    (fusion, "fuse_plan", "optimizer.fuse"),
    (analyzer, "analyze_logical", "analysis.analyze"),
    (absint, "infer", "analysis.absint"),
    (lineage, "infer_lineage", "analysis.lineage"),
    (graphs, "dbpedia_like", "datasets.generate"),
    (tpch, "lineitem", "datasets.generate"),
)

METHOD_SPANS = (
    (Optimizer, "optimize", "optimizer.optimize"),
    (QueryExecutor, "execute", "runtime.execute"),
    (QueryExecutor, "_final_flush", "runtime.flush"),
    (SimulatedNetwork, "drain", "net.drain"),
    (Cluster, "create_table", "storage.create_table"),
)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        #: Closed spans: (id, parent id or -1, name, start, end, run id).
        self.spans: List[tuple] = []
        #: Open spans: [id, name, start, child seconds, owner object].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.stratum_ms: List[float] = []
        self.run = 0
        self._next_id = 0
        self._boundary: Optional[float] = None
        self._in_fanout = False
        self._undo: List[Callable[[], None]] = []

    # -- spans ------------------------------------------------------------
    def enter(self, name: str, owner=None) -> None:
        self.stack.append([self._next_id, name, self.clock(), 0.0, owner])
        self._next_id += 1

    def exit(self) -> float:
        end = self.clock()
        span_id, name, start, child, _ = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        parent = -1
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        self.spans.append((span_id, parent, name, start, end, self.run))
        return end

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            out.write("run,id,parent,name,start_s,end_s\n")
            origin = self.origin
            for span_id, parent, name, start, end, run in sorted(self.spans):
                out.write(f"{run},{span_id},{parent},{name},"
                          f"{start - origin:.9f},{end - origin:.9f}\n")

    # -- wrappers ---------------------------------------------------------
    def _span(self, name: str, fn: Callable) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return wrapper

    def _operator_span(self, name: str, fn: Callable,
                       rows: Optional[Callable]) -> Callable:
        enter, exit_, stack, counts = (self.enter, self.exit, self.stack,
                                       self.counts)
        rows_key, batches_key = name + ".rows_in", name + ".batches"

        @functools.wraps(fn)
        def wrapper(op, *args, **kwargs):
            # A call an operator makes into itself (push_batch into its
            # own transform_batch) carries the same rows: count them once.
            if rows is not None and not (stack and stack[-1][4] is op):
                n, b = rows(args)
                counts[rows_key] += n
                counts[batches_key] += b
            enter(name, op)
            try:
                return fn(op, *args, **kwargs)
            finally:
                exit_()
        return wrapper

    def _counter(self, fn: Callable, rows_key: str,
                 batches_key: Optional[str] = None,
                 single: bool = False) -> Callable:
        """Count what ``fn`` hands on: one row (``emit``, ``single``) or
        a batch (``emit_batch``)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(op, payload, *args, **kwargs):
            if single:
                counts[rows_key] += 1
            elif payload:
                counts[rows_key] += len(payload)
                if batches_key is not None:
                    counts[batches_key] += 1
            return fn(op, payload, *args, **kwargs)
        return wrapper

    def _patch_method(self, cls, attr: str, wrapper_of: Callable) -> None:
        had_own = attr in cls.__dict__
        original = cls.__dict__[attr] if had_own else getattr(cls, attr)
        setattr(cls, attr, wrapper_of(original))
        self._undo.append(lambda: setattr(cls, attr, original) if had_own
                          else delattr(cls, attr))

    def _patch_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        wrapper = self._span(name, original)
        if original is rewrite.rewrite_plan:
            wrapper = self._counting_rewrites(wrapper)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append(
                        functools.partial(namespace.__setitem__, key,
                                          original))

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        for module, attr, name in FUNCTION_SPANS:
            self._patch_function(module, attr, name)
        for cls, attr, name in METHOD_SPANS:
            self._patch_method(cls, attr,
                               functools.partial(self._span, name))
        self._install_operators()
        self._install_runtime()
        self._install_network()
        for attr, value in list(vars(FlightRecorder).items()):
            if inspect.isfunction(value) and (attr == "__init__"
                                              or not attr.startswith("_")):
                self._patch_method(FlightRecorder, attr,
                                   functools.partial(self._span,
                                                     "obs.flight"))
        for cls in _subclasses(JoinDeltaHandler) + _subclasses(
                WhileDeltaHandler):
            if "update" in cls.__dict__:
                self._patch_method(cls, "update", self._handler_span)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _install_operators(self) -> None:
        for cls in OPERATOR_CLASSES:
            name = f"operators.{cls.__name__}"
            for attr, rows in OPERATOR_ENTRIES.items():
                if hasattr(cls, attr):
                    self._patch_method(cls, attr, functools.partial(
                        self._operator_span, name, rows=rows))
        # Sources have no input: what they emit is what they take in.
        for cls in SOURCE_CLASSES:
            name = f"operators.{cls.__name__}"
            self._patch_method(cls, "emit_batch", functools.partial(
                self._counter, rows_key=name + ".rows_in",
                batches_key=name + ".batches"))
            self._patch_method(cls, "emit", functools.partial(
                self._counter, rows_key=name + ".rows_in", single=True))
        key = "operators.HashJoin.rows_out"
        self._patch_method(HashJoin, "emit_batch", functools.partial(
            self._counter, rows_key=key))
        self._patch_method(HashJoin, "emit", functools.partial(
            self._counter, rows_key=key, single=True))

    def _handler_span(self, fn: Callable) -> Callable:
        span = self._span("udf.handler", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["udf.handler_calls"] += 1
            return span(*args, **kwargs)
        return wrapper

    def _install_runtime(self) -> None:
        tracer = self

        def instantiate(fn):
            span = self._span("runtime.instantiate", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    return span(*args, **kwargs)
                finally:
                    # The first stratum starts when instantiation ends.
                    tracer._boundary = tracer.clock()
            return wrapper

        def end_stratum(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                now = tracer.clock()
                tracer.counts["runtime.strata"] += 1
                if tracer._boundary is not None:
                    tracer.stratum_ms.append(
                        (now - tracer._boundary) * 1000.0)
                tracer._boundary = now
                return result
            return wrapper

        self._patch_method(QueryExecutor, "_instantiate", instantiate)
        self._patch_method(Cluster, "end_stratum_wall_time", end_stratum)

    def _install_network(self) -> None:
        tracer = self
        counts = self.counts

        def send(fn):
            @functools.wraps(fn)
            def wrapper(net, msg):
                before = net.total_bytes
                fn(net, msg)
                if tracer._in_fanout:
                    return
                counts["net.messages"] += 1
                if msg.exchange.startswith("ckpt."):
                    counts["runtime.checkpoint_msgs"] += 1
                    counts["runtime.checkpoint_bytes"] += (net.total_bytes
                                                           - before)
            return wrapper

        def fanout(fn):
            @functools.wraps(fn)
            def wrapper(net, *args, **kwargs):
                before = net.pending()
                tracer._in_fanout = True
                try:
                    fn(net, *args, **kwargs)
                finally:
                    tracer._in_fanout = False
                counts["net.messages"] += net.pending() - before
            return wrapper

        def register(fn):
            @functools.wraps(fn)
            def wrapper(net, *args, **kwargs):
                fn(net, *args, **kwargs)
                counts["net.handlers_live"] += 1
            return wrapper

        def unregister_node(fn):
            @functools.wraps(fn)
            def wrapper(net, *args, **kwargs):
                before = len(net._handlers)
                fn(net, *args, **kwargs)
                counts["net.handlers_live"] -= before - len(net._handlers)
            return wrapper

        self._patch_method(SimulatedNetwork, "send", send)
        self._patch_method(SimulatedNetwork, "send_punct_fanout", fanout)
        self._patch_method(SimulatedNetwork, "register", register)
        self._patch_method(SimulatedNetwork, "unregister_node",
                           unregister_node)

    def _counting_rewrites(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            root, decisions = fn(*args, **kwargs)
            counts["optimizer.rewrites_applied"] += sum(
                1 for d in decisions if d.applied)
            return root, decisions
        return wrapper


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- counting run -----------------------------------------------------------
def count_calls(fn: Callable[[], None]) -> Dict[str, int]:
    """Run ``fn`` under cProfile and return the exact work counters."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    stats = pstats.Stats(profile)
    per_function = stats.stats  # key -> (prim calls, calls, tt, ct, callers)

    def calls(path_suffix: str, name_prefix: str) -> int:
        return sum(v[1] for (filename, _, name), v in per_function.items()
                   if filename.endswith(path_suffix)
                   and name.startswith(name_prefix))

    return {
        "py.calls": stats.total_calls,
        "common.deltas_allocated": calls("repro/common/deltas.py",
                                         "__init__"),
        "common.row_bytes_calls": calls("repro/common/sizes.py",
                                        "row_bytes"),
        "cluster.charge_calls": calls("repro/cluster/cluster.py",
                                      "charge_"),
    }
