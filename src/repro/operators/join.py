"""Pipelined symmetric hash join with delta propagation.

"The join operator, in its pipelined form, will accumulate each tuple it
receives and immediately probe it against any tuples accumulated from the
opposite relation" (Section 3.2).  Delta rules follow Gupta et al. [12]
(Section 3.3): insertions/deletions apply to the bucket then probe and
propagate; replacements become replace outputs when the join key is
unchanged, otherwise delete+insert pairs; ``δ(E)`` updates require a
user-defined join delta handler (e.g. the paper's ``PRAgg``), which is
given both matching buckets and full control over state and output.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import ExecutionError
from repro.common.sizes import row_bytes
from repro.operators.base import Operator
from repro.udf.aggregates import JoinDeltaHandler, as_deltas

LEFT = 0
RIGHT = 1


class HashJoin(Operator):
    """Equi-join on compiled key extractors; port 0 = left, port 1 = right.

    ``handler`` (a :class:`~repro.udf.aggregates.JoinDeltaHandler`) takes
    over processing for deltas arriving on ``handler_side`` (both sides if
    ``handler_side is None``); it receives the left and right buckets for
    the delta's key and returns the deltas to propagate.
    """

    per_tuple_cost = None  # set from cost model at open()

    #: Proofs from the delta-polarity abstract interpretation, set by the
    #: executor for sanitized runs only.  ``proof_insert_only_ports`` lists
    #: non-handler ports whose input is statically proven insert-only;
    #: ``proof_polarity`` is the proven kind set.  The sanitizer asserts
    #: both (a contradiction is REX307); execution never reads them.
    proof_polarity: Optional[frozenset] = None
    proof_insert_only_ports: frozenset = frozenset()

    def __init__(self, left_key: Callable[[tuple], tuple],
                 right_key: Callable[[tuple], tuple],
                 handler: Optional[JoinDeltaHandler] = None,
                 handler_side: Optional[int] = RIGHT,
                 name: Optional[str] = None):
        super().__init__(name or "HashJoin")
        self.keys = (left_key, right_key)
        self.handler = handler
        self.handler_side = handler_side
        # key -> (left rows, right rows); plain lists preserve duplicates.
        self.buckets: Dict[tuple, Tuple[list, list]] = {}

    def open(self, ctx):
        super().open(ctx)
        self.per_tuple_cost = ctx.cost.cpu_tuple_cost + ctx.cost.hash_op_cost

    # -- bucket plumbing ----------------------------------------------------
    def _bucket(self, key: tuple) -> Tuple[list, list]:
        self.ctx.worker.charge_state_access()
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = ([], [])
            self.buckets[key] = bucket
        return bucket

    def _combine(self, left_row, right_row) -> tuple:
        return tuple(left_row) + tuple(right_row)

    def _pairs(self, row, side: int, opposite_rows) -> List[tuple]:
        if side == LEFT:
            return [self._combine(row, r) for r in opposite_rows]
        return [self._combine(r, row) for r in opposite_rows]

    def _uses_handler(self, port: int) -> bool:
        return (self.handler is not None
                and (self.handler_side is None or port == self.handler_side))

    # -- delta rules -------------------------------------------------------
    def process(self, delta: Delta, port: int) -> None:
        if port not in (LEFT, RIGHT):
            raise ExecutionError(f"{self.name}: bad port {port}")
        if self._uses_handler(port):
            self._process_with_handler(delta, port)
            return
        out: List[Delta] = []
        self._apply_rules(delta, port, out)
        self.emit_all(out)

    def push_batch(self, deltas, port: int = 0) -> None:
        """Vectorized probe loop: batch charging, locals bound, and one
        downstream batch emission covering the whole input batch."""
        if not deltas:
            return
        if port not in (LEFT, RIGHT):
            raise ExecutionError(f"{self.name}: bad port {port}")
        ctx = self.ctx
        ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        out: List[Delta] = []
        if self._uses_handler(port):
            handler = self.handler
            update = handler.update
            key_fn = self.keys[port]
            buckets = self.buckets
            worker = ctx.worker
            charge_state_access = worker.charge_state_access
            # charge_state_access is a no-op until state spills past the
            # memory budget; guard with an inline compare in the hot loop.
            memory_budget = worker.cost.worker_memory_bytes
            per_delta_cost = getattr(handler, "per_delta_cost", None)
            call_cost = (per_delta_cost(ctx.cost)
                         if per_delta_cost is not None
                         else ctx.cost.udf_cost_per_tuple(batched=True))
            out_extend = out.extend
            for delta in deltas:
                key = key_fn(delta.row)
                if worker.state_bytes > memory_budget:
                    charge_state_access()
                try:
                    bucket = buckets[key]
                except KeyError:
                    bucket = buckets[key] = ([], [])
                result = update(bucket[0], bucket[1], delta, port)
                if result:
                    out_extend(as_deltas(key, result))
            ctx.charge_cpu(call_cost, len(deltas))
        else:
            apply_rules = self._apply_rules
            key_fn = self.keys[port]
            buckets = self.buckets
            worker = ctx.worker
            charge_state_access = worker.charge_state_access
            memory_budget = worker.cost.worker_memory_bytes
            add_state_bytes = worker.add_state_bytes
            insert_op = DeltaOp.INSERT
            opp = 1 - port
            append_out = out.append
            for delta in deltas:
                # Insert fast path (bulk loading a build side): same state
                # mutation and charges as _insert, fewer frames.
                if delta.op is insert_op:
                    row = delta.row
                    key = key_fn(row)
                    if worker.state_bytes > memory_budget:
                        charge_state_access()
                    try:
                        bucket = buckets[key]
                    except KeyError:
                        bucket = buckets[key] = ([], [])
                    bucket[port].append(row)
                    add_state_bytes(row_bytes(row))
                    if bucket[opp]:
                        for pair in self._pairs(row, port, bucket[opp]):
                            append_out(Delta(insert_op, pair))
                else:
                    apply_rules(delta, port, out)
        self.emit_batch(out)

    def _apply_rules(self, delta: Delta, side: int, out: List[Delta]) -> None:
        if delta.op is DeltaOp.INSERT:
            self._insert(delta.row, side, out)
        elif delta.op is DeltaOp.DELETE:
            self._delete(delta.row, side, out)
        elif delta.op is DeltaOp.REPLACE:
            self._replace(delta.old, delta.row, side, out)
        else:
            # No handler: propagate the annotation "as if it were another
            # (hidden) attribute" — probe without touching state.
            self._passthrough_update(delta, side, out)

    def _insert(self, row: tuple, side: int, out: List[Delta]) -> None:
        key = self.keys[side](row)
        bucket = self._bucket(key)
        bucket[side].append(row)
        self.ctx.worker.add_state_bytes(row_bytes(row))
        for pair in self._pairs(row, side, bucket[1 - side]):
            out.append(Delta(DeltaOp.INSERT, pair))

    def _delete(self, row: tuple, side: int, out: List[Delta]) -> None:
        key = self.keys[side](row)
        bucket = self._bucket(key)
        try:
            bucket[side].remove(row)
        except ValueError:
            raise ExecutionError(
                f"{self.name}: deletion of absent row {row!r}"
            ) from None
        for pair in self._pairs(row, side, bucket[1 - side]):
            out.append(Delta(DeltaOp.DELETE, pair))

    def _replace(self, old: tuple, new: tuple, side: int,
                 out: List[Delta]) -> None:
        old_key = self.keys[side](old)
        new_key = self.keys[side](new)
        if old_key == new_key:
            bucket = self._bucket(old_key)
            try:
                idx = bucket[side].index(old)
            except ValueError:
                raise ExecutionError(
                    f"{self.name}: replacement of absent row {old!r}"
                ) from None
            bucket[side][idx] = new
            for opp in bucket[1 - side]:
                out.append(Delta(
                    DeltaOp.REPLACE,
                    self._pairs(new, side, [opp])[0],
                    old=self._pairs(old, side, [opp])[0],
                ))
        else:
            # Key changed: the replacement decomposes into delete+insert
            # affecting two different buckets.
            self._delete(old, side, out)
            self._insert(new, side, out)

    def _passthrough_update(self, delta: Delta, side: int,
                            out: List[Delta]) -> None:
        key = self.keys[side](delta.row)
        bucket = self._bucket(key)
        for pair in self._pairs(delta.row, side, bucket[1 - side]):
            out.append(Delta(DeltaOp.UPDATE, pair, payload=delta.payload))

    def _process_with_handler(self, delta: Delta, side: int) -> None:
        key = self.keys[side](delta.row)
        left_bucket, right_bucket = self._bucket(key)
        per_delta_cost = getattr(self.handler, "per_delta_cost", None)
        if per_delta_cost is not None:
            self.ctx.charge_cpu(per_delta_cost(self.ctx.cost))
        else:
            self.ctx.charge_cpu(self.ctx.cost.udf_cost_per_tuple(batched=True))
        out = self.handler.update(left_bucket, right_bucket, delta, side)
        self.emit_all(as_deltas(key, out))

    # -- introspection -----------------------------------------------------
    def state_size(self) -> int:
        return sum(len(left) + len(right)
                   for left, right in self.buckets.values())

    def state_breakdown(self) -> Dict[str, int]:
        """Side-resolved state summary for the observability registry:
        number of distinct join keys and accumulated rows per side."""
        left_rows = right_rows = 0
        for left, right in self.buckets.values():
            left_rows += len(left)
            right_rows += len(right)
        return {"keys": len(self.buckets),
                "left_rows": left_rows, "right_rows": right_rows}
