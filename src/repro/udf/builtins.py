"""Built-in aggregate functions with full delta rules.

Section 3.3: "The standard operators (min, max, sum, average, count)
automatically handle insertion, deletion, and replacement deltas."  The
subtle case the paper calls out is ``min`` under deletion: if the deleted
value *was* the minimum, the next-smallest value must come from buffered
state — so :class:`Min`/:class:`Max` keep an order-statistic multiset, while
:class:`Sum`/:class:`Count`/:class:`Avg` keep O(1) running state.

Numeric built-ins additionally interpret ``δ(E)`` value-update deltas whose
payload is a numeric adjustment (the "arithmetic sum" implicit operation the
paper uses for PageRank diffs).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional, Tuple

from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import UDFError
from repro.udf.aggregates import Aggregator


def _numeric_fold(state, delta: Delta, value, old_value, fold_in, fold_out):
    """Shared insert/delete/replace/update dispatch for running aggregates."""
    if delta.op is DeltaOp.INSERT:
        fold_in(state, value)
    elif delta.op is DeltaOp.DELETE:
        fold_out(state, value)
    elif delta.op is DeltaOp.REPLACE:
        fold_out(state, old_value)
        fold_in(state, value)
    elif delta.op is DeltaOp.UPDATE:
        if not isinstance(delta.payload, (int, float)):
            raise UDFError(
                "built-in aggregates only interpret numeric UPDATE payloads"
            )
        state["sum"] = state.get("sum", 0) + delta.payload
    return state


class Sum(Aggregator):
    """SUM with insert/delete/replace/update delta rules.

    State is ``{sum, count}``; the count distinguishes an empty group (result
    ``None``, SQL semantics) from a group summing to zero.
    """

    name = "sum"
    composable = True
    multiply = staticmethod(lambda value, n: None if value is None else value * n)

    def init_state(self):
        return {"sum": 0, "count": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        # Hot path (PageRank diffs are Sum updates): hand-inlined fold —
        # same arithmetic and ordering as _numeric_fold, no closures.
        op = delta.op
        if op is DeltaOp.UPDATE:
            payload = delta.payload
            if not isinstance(payload, (int, float)):
                raise UDFError(
                    "built-in aggregates only interpret numeric UPDATE "
                    "payloads"
                )
            if state["count"] < 1:
                state["count"] = 1
            state["sum"] += payload
        elif op is DeltaOp.INSERT:
            if value is not None:
                state["sum"] += value
                state["count"] += 1
        elif op is DeltaOp.DELETE:
            if value is not None:
                state["sum"] -= value
                state["count"] -= 1
        else:  # REPLACE: retract the old image, then apply the new
            if old_value is not None:
                state["sum"] -= old_value
                state["count"] -= 1
            if value is not None:
                state["sum"] += value
                state["count"] += 1
        return state

    def agg_result(self, state):
        return state["sum"] if state["count"] > 0 else None


class Count(Aggregator):
    """COUNT(*) or COUNT(expr); NULL inputs are skipped for COUNT(expr)."""

    name = "count"
    composable = True
    multiply = staticmethod(lambda value, n: None if value is None else value * n)

    def __init__(self, count_star: bool = True):
        super().__init__()
        self.count_star = count_star

    def init_state(self):
        return {"n": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        op = delta.op
        if op is DeltaOp.INSERT:
            if self.count_star or value is not None:
                state["n"] += 1
        elif op is DeltaOp.DELETE:
            if self.count_star or value is not None:
                state["n"] -= 1
        elif op is DeltaOp.REPLACE:
            if not self.count_star:
                state["n"] += (value is not None) - (old_value is not None)
        elif op is DeltaOp.UPDATE:
            if not isinstance(delta.payload, int):
                raise UDFError("count interprets only integer UPDATE payloads")
            state["n"] += delta.payload
        return state

    def agg_result(self, state):
        return state["n"]

    def final_aggregator(self) -> Aggregator:
        # Partial counts are *summed*, not re-counted, after a combiner.
        return Sum()


class _Rev:
    """Inverts comparison so one heap implementation serves Min and Max."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return isinstance(other, _Rev) and other.value == self.value

    def __hash__(self):
        return hash(("_Rev", self.value))


class _OrderStatMultiset:
    """Multiset with O(1) insert and amortized-cheap extreme lookup.

    Live multiplicities plus a cached extreme.  An insert updates the
    cache with one comparison; only deleting the last copy of the cached
    extreme forces a rescan of the distinct live values, deferred to the
    next ``extreme()`` call.  This is the "buffered state" the paper says
    min needs to answer deletions — insert-heavy streams (SSSP's distance
    offers) never pay for the deletion support.
    """

    __slots__ = ("largest", "size", "_live", "_best", "_stale")

    def __init__(self, largest: bool):
        self.largest = largest
        self._live: dict = {}
        self.size = 0
        self._best = None
        self._stale = False

    def add(self, value) -> None:
        live = self._live
        live[value] = live.get(value, 0) + 1
        self.size += 1
        if not self._stale:
            best = self._best
            if best is None or (value > best if self.largest
                                else value < best):
                self._best = value

    def remove(self, value) -> None:
        count = self._live.get(value, 0)
        if count <= 0:
            raise UDFError(f"deleting value {value!r} not present in aggregate state")
        if count == 1:
            del self._live[value]
            if value == self._best:
                # The cached extreme's last copy is gone; rescan lazily.
                self._best = None
                self._stale = True
        else:
            self._live[value] = count - 1
        self.size -= 1

    def extreme(self):
        """Current min (or max), or None if empty."""
        if self.size <= 0:
            return None
        if self._stale:
            self._best = (max if self.largest else min)(self._live)
            self._stale = False
        return self._best


class Min(Aggregator):
    """MIN with deletion support via an order-statistic multiset."""

    name = "min"
    composable = True
    largest = False
    replay_idempotent = True  # re-adding a present value cannot move the extreme

    def init_state(self):
        return _OrderStatMultiset(self.largest)

    def agg_state(self, state: _OrderStatMultiset, delta: Delta, value,
                  old_value=None):
        if delta.op is DeltaOp.INSERT:
            if value is not None:
                state.add(value)
        elif delta.op is DeltaOp.DELETE:
            if value is not None:
                state.remove(value)
        elif delta.op is DeltaOp.REPLACE:
            if old_value is not None:
                state.remove(old_value)
            if value is not None:
                state.add(value)
        else:
            raise UDFError(f"{self.name} cannot interpret UPDATE deltas; "
                           "supply a user delta handler")
        return state

    def agg_result(self, state: _OrderStatMultiset):
        return state.extreme()


class Max(Min):
    """MAX — shares Min's machinery with inverted ordering."""

    name = "max"
    largest = True


class Avg(Aggregator):
    """AVG, divided into a (sum, count) pre-aggregate and a final division.

    Section 3.3: "average ... is often divided into two portions: a
    pre-aggregate operation that associates both a sum and a count with each
    group (called combiner in MapReduce), and a final aggregate operation."
    """

    name = "avg"
    composable = True

    def init_state(self):
        return {"sum": 0.0, "count": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        def fold_in(s, v):
            if v is not None:
                s["sum"] += v
                s["count"] += 1

        def fold_out(s, v):
            if v is not None:
                s["sum"] -= v
                s["count"] -= 1

        return _numeric_fold(state, delta, value, old_value, fold_in, fold_out)

    def agg_result(self, state):
        if state["count"] <= 0:
            return None
        return state["sum"] / state["count"]

    def pre_aggregator(self) -> Aggregator:
        return AvgPartial()

    def final_aggregator(self) -> Aggregator:
        return AvgFinal()


class AvgPartial(Aggregator):
    """The combiner half of AVG: emits ``(sum, count)`` pairs."""

    name = "avg_partial"
    composable = True

    def init_state(self):
        return {"sum": 0.0, "count": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        return Avg.agg_state(self, state, delta, value, old_value)

    def agg_result(self, state):
        if state["count"] <= 0:
            return None
        return (state["sum"], state["count"])


class AvgFinal(Aggregator):
    """The final half of AVG: accumulates ``(sum, count)`` partials."""

    name = "avg_final"

    def init_state(self):
        return {"sum": 0.0, "count": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        def fold_in(s, v):
            if v is not None:
                s["sum"] += v[0]
                s["count"] += v[1]

        def fold_out(s, v):
            if v is not None:
                s["sum"] -= v[0]
                s["count"] -= v[1]

        if delta.op is DeltaOp.UPDATE:
            raise UDFError("avg_final cannot interpret UPDATE deltas")
        return _numeric_fold(state, delta, value, old_value, fold_in, fold_out)

    def agg_result(self, state):
        if state["count"] <= 0:
            return None
        return state["sum"] / state["count"]


class ArgMin(Aggregator):
    """The appendix's general-purpose aggregate: the identifier carrying the
    minimum value.  Input values are ``(id, value)`` pairs; result is the
    ``(id, value)`` pair with the least value (ties broken by id, for
    determinism).  Used by the shortest-path query (Listing 2).
    """

    name = "argmin"
    largest = False
    replay_idempotent = True

    def init_state(self):
        return _OrderStatMultiset(self.largest)

    def _key(self, pair):
        ident, value = pair
        # Order by value first; id tie-break keeps results deterministic.
        return (value, ident) if not self.largest else (value, _Rev(ident))

    def agg_state(self, state: _OrderStatMultiset, delta: Delta, value,
                  old_value=None):
        if delta.op is DeltaOp.INSERT:
            state.add(self._key(value))
        elif delta.op is DeltaOp.DELETE:
            state.remove(self._key(value))
        elif delta.op is DeltaOp.REPLACE:
            state.remove(self._key(old_value))
            state.add(self._key(value))
        else:
            raise UDFError("argmin cannot interpret UPDATE deltas")
        return state

    def agg_result(self, state: _OrderStatMultiset):
        top = state.extreme()
        if top is None:
            return None
        value, ident = top
        if isinstance(ident, _Rev):
            ident = ident.value
        return (ident, value)


class ArgMax(ArgMin):
    name = "argmax"
    largest = True


class CollectList(Aggregator):
    """Collection-valued aggregation (Section 2 calls these essential).

    Gathers input values into a list; deletion removes one occurrence.
    The result is sorted so output is deterministic across partitionings.
    """

    name = "collect"

    def init_state(self):
        return Counter()

    def agg_state(self, state: Counter, delta: Delta, value, old_value=None):
        if delta.op is DeltaOp.INSERT:
            state[value] += 1
        elif delta.op is DeltaOp.DELETE:
            if state[value] <= 0:
                raise UDFError(f"deleting {value!r} not present in collection")
            state[value] -= 1
        elif delta.op is DeltaOp.REPLACE:
            state[old_value] -= 1
            state[value] += 1
        else:
            raise UDFError("collect cannot interpret UPDATE deltas")
        return state

    def agg_result(self, state: Counter):
        out = []
        for value, n in state.items():
            out.extend([value] * n)
        if not out:
            return None
        return tuple(sorted(out))


#: Names the RQL front end resolves to built-in aggregators.
BUILTIN_AGGREGATES = {
    "sum": Sum,
    "count": Count,
    "min": Min,
    "max": Max,
    "avg": Avg,
    "argmin": ArgMin,
    "argmax": ArgMax,
    "collect": CollectList,
}
