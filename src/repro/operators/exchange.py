"""Rehash: the cross-worker exchange operator (Sections 3.2 and 4.2).

"Whenever needed, a rehash operator re-partitions data among worker nodes
based on the partitioning snapshot for the current query."  A rehash edge is
split into a :class:`RehashSender` on the producing worker (batches deltas
per destination and ships them) and an :class:`ExchangeReceiver` on each
consuming worker (feeds the deltas into the consuming operator and counts
per-sender punctuation).  ``broadcast=True`` ships every delta to all live
workers (used for small relations such as K-means centroids).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation
from repro.common.sizes import row_bytes, value_bytes
from repro.net.network import Message, PUNCT_BYTES
from repro.operators.base import Operator
from repro.storage.hashing import normalize_key


class RehashSender(Operator):
    """Routes deltas by partition key to peer workers, in batches.

    A replacement whose routing key changed is split into a deletion routed
    to the old owner and an insertion routed to the new owner — the two
    images live in different partitions.
    """

    #: Routing-memo capacity: the row->destination cache is wiped when it
    #: reaches this many entries (bulk eviction keeps the hot loop to one
    #: dict probe).  Class attribute so tests can pin eviction behavior
    #: with a small cap.
    memo_cap: int = 131072

    def __init__(self, exchange: str,
                 key_fn: Optional[Callable[[tuple], tuple]] = None,
                 batch_size: int = 256, broadcast: bool = False,
                 name: Optional[str] = None):
        if not broadcast and key_fn is None:
            raise ExecutionError("rehash requires a key function (or broadcast)")
        super().__init__(name or f"Rehash({exchange})")
        self.exchange = exchange
        self.key_fn = key_fn
        self.batch_size = batch_size
        self.broadcast = broadcast
        self._buffers: Dict[int, List[Delta]] = {}
        # Running wire size of each buffer (the exact per-delta terms of
        # Message.size_bytes, accumulated at append time): _flush ships
        # it precomputed via int Message.meta, so the network never
        # re-walks a payload this sender already walked.
        self._buf_bytes: Dict[int, int] = {}
        # row -> (destination, wire base bytes) memo, invalidated when
        # the snapshot's live set changes (node failure re-routes ranges
        # mid-query).  The base is ``1 + row_bytes(row)`` — the delta's
        # wire contribution before old/payload extras — cached next to
        # the destination because both are pure functions of the row.  A
        # second key -> destination level backs it: streams of
        # mostly-distinct rows over few keys (SSSP's distance offers)
        # miss the row level but skip the ring hash via the key level.
        self._dst_cache: Dict[tuple, tuple] = {}
        self._key_dst_cache: Dict[tuple, int] = {}
        self._dst_version = -1
        # Memo accounting, surfaced by repro.obs as memo.rehash.* counters.
        # Only exceptional branches touch these per-delta (misses, cap
        # evictions); hits are reconstructed once per batch, so the
        # counters cost nothing measurable when observability is off.
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0

    def open(self, ctx):
        super().open(ctx)
        self.per_tuple_cost = ctx.cost.cpu_tuple_cost + ctx.cost.hash_op_cost

    def _destinations(self, row: tuple) -> List[int]:
        if self.broadcast:
            return self.ctx.snapshot.live_nodes()
        key = normalize_key(self.key_fn(row))
        return [self.ctx.snapshot.primary(key)]

    @staticmethod
    def _wire_bytes(delta: Delta) -> int:
        """This delta's exact contribution to ``Message.size_bytes`` —
        the accumulation term behind the precomputed-meta fast path."""
        nbytes = 1 + row_bytes(delta.row)
        old = delta.old
        if old is not None:
            nbytes += row_bytes(old)
        payload = delta.payload
        if payload is not None:
            nbytes += (8 if payload.__class__ is float
                       else value_bytes(payload))
        return nbytes

    def _route(self, delta: Delta) -> None:
        # Hot loop: bind lookups to locals (satellite of the batch PR).
        buffers = self._buffers
        buf_bytes = self._buf_bytes
        batch_size = self.batch_size
        nbytes = self._wire_bytes(delta)
        if self.broadcast:
            destinations = self.ctx.snapshot.live_nodes()
        else:
            destinations = (self.ctx.snapshot.primary(
                normalize_key(self.key_fn(delta.row))),)
        for dst in destinations:
            buf = buffers.get(dst)
            if buf is None:
                buf = buffers[dst] = []
            buf.append(delta)
            buf_bytes[dst] = buf_bytes.get(dst, 0) + nbytes
            if len(buf) >= batch_size:
                self._flush(dst)

    def process(self, delta: Delta, port: int) -> None:
        if (delta.op is DeltaOp.REPLACE and not self.broadcast
                and self.key_fn(delta.old) != self.key_fn(delta.row)):
            self._route(Delta(DeltaOp.DELETE, delta.old))
            self._route(Delta(DeltaOp.INSERT, delta.row))
        else:
            self._route(delta)

    def push_batch(self, deltas, port: int = 0) -> None:
        """Route a whole batch in one partition pass.

        Message boundaries are unchanged from per-tuple routing (a buffer
        still flushes the moment it reaches ``batch_size``), so the network
        sees the same messages and bytes in both execution modes.
        """
        if not deltas:
            return
        ctx = self.ctx
        ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        buffers = self._buffers
        buf_bytes = self._buf_bytes
        batch_size = self.batch_size
        flush = self._flush
        snapshot = ctx.snapshot
        if self.broadcast:
            live = snapshot.live_nodes()
            wire_bytes = self._wire_bytes
            for delta in deltas:
                nbytes = wire_bytes(delta)
                for dst in live:
                    buf = buffers.get(dst)
                    if buf is None:
                        buf = buffers[dst] = []
                    buf.append(delta)
                    buf_bytes[dst] = buf_bytes.get(dst, 0) + nbytes
                    if len(buf) >= batch_size:
                        flush(dst)
            return
        key_fn = self.key_fn
        normalize = normalize_key
        primary = snapshot.primary
        replace = DeltaOp.REPLACE
        size_row = row_bytes
        size_value = value_bytes
        if self._dst_version != snapshot.version:
            if self._dst_cache:
                # Snapshot change (failure re-routing) invalidates every
                # memoized destination: count it as a bulk eviction.
                self.memo_evictions += len(self._dst_cache)
            self._dst_cache.clear()
            self._key_dst_cache.clear()
            self._dst_version = snapshot.version
        # The memo is keyed by the *row*, not the extracted key: equal rows
        # extract equal keys (key functions are pure), so a hit skips the
        # key_fn call, the ring lookup, and the row's wire-size terms.
        dst_for_row = self._dst_cache
        dst_for_key = self._key_dst_cache
        memo_cap = self.memo_cap
        misses = splits = 0
        for delta in deltas:
            row = delta.row
            extra = 0
            if delta.op is replace:
                old = delta.old
                if key_fn(old) != key_fn(row):
                    # Split replacement: two partitions; route each half
                    # exactly as the per-tuple path would.
                    splits += 1
                    self._route(Delta(DeltaOp.DELETE, old))
                    self._route(Delta(DeltaOp.INSERT, row))
                    continue
                extra = size_row(old)
            # get() instead of [] + KeyError: mostly-distinct row streams
            # (SSSP offers) miss the row level on nearly every delta, and
            # a raised exception costs far more than a None test.
            try:
                memo = dst_for_row.get(row)
            except TypeError:
                misses += 1  # unhashable row: uncacheable lookup
                memo = (primary(normalize(key_fn(row))), 1 + size_row(row))
            else:
                if memo is None:
                    misses += 1
                    key = key_fn(row)
                    dst = dst_for_key.get(key)
                    if dst is None:
                        dst = primary(normalize(key))
                        if len(dst_for_key) >= memo_cap:
                            dst_for_key.clear()
                        dst_for_key[key] = dst
                    if len(dst_for_row) >= memo_cap:
                        self.memo_evictions += len(dst_for_row)
                        dst_for_row.clear()
                    memo = dst_for_row[row] = (dst, 1 + size_row(row))
            dst, nbytes = memo
            payload = delta.payload
            if payload is not None:
                nbytes += (8 if payload.__class__ is float
                           else size_value(payload))
            try:
                buf = buffers[dst]
            except KeyError:
                buf = buffers[dst] = []
            buf.append(delta)
            buf_bytes[dst] = buf_bytes.get(dst, 0) + nbytes + extra
            if len(buf) >= batch_size:
                flush(dst)
        self.memo_misses += misses
        self.memo_hits += len(deltas) - splits - misses

    def _flush(self, dst: int) -> None:
        batch = self._buffers.pop(dst, None)
        nbytes = self._buf_bytes.pop(dst, 0)
        if batch:
            self.ctx.cluster.network.send(Message(
                src=self.ctx.node_id, dst=dst,
                exchange=self.exchange, deltas=batch,
                meta=nbytes + PUNCT_BYTES,
            ))

    def on_punctuation(self, punct: Punctuation, port: int = 0) -> None:
        """Flush everything, then punctuate every receiver (each receiver
        counts one punctuation per live sender)."""
        for dst in list(self._buffers):
            self._flush(dst)
        # Bulk broadcast: the same message stream and charge multisets as
        # one send per live node (the network falls back to per-message
        # sends itself whenever an observer is attached).
        ctx = self.ctx
        ctx.cluster.network.send_punct_fanout(
            ctx.node_id, ctx.snapshot.live_nodes(), self.exchange, punct)


class ExchangeReceiver(Operator):
    """The receiving half of a rehash; registered on the network fabric.

    Expects one punctuation per live sender before closing the stratum and
    forwarding a single punctuation to its consumer.
    """

    def __init__(self, exchange: str, expected_senders: int,
                 name: Optional[str] = None):
        super().__init__(name or f"Receive({exchange})")
        self.exchange = exchange
        self.expected_senders = expected_senders
        self._punct_count = 0

    def open(self, ctx):
        super().open(ctx)
        ctx.cluster.network.register(ctx.node_id, self.exchange,
                                     self.handle_message)

    def set_expected_senders(self, n: int) -> None:
        """Adjusted by recovery when the sender population changes."""
        self.expected_senders = n

    def handle_message(self, msg: Message) -> None:
        if msg.punct is not None:
            self._punct_count += 1
            if self._punct_count >= self.expected_senders:
                self._punct_count = 0
                self.forward_punctuation(msg.punct)
            return
        deltas = msg.deltas or ()
        if not deltas:
            return
        if self.ctx.batch:
            self.ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
            self.emit_batch(deltas if isinstance(deltas, list)
                            else list(deltas))
            return
        charge_tuple = self.ctx.charge_tuple
        per_tuple_cost = self.per_tuple_cost
        emit = self.emit
        for delta in deltas:
            charge_tuple(per_tuple_cost)
            emit(delta)

    def process(self, delta: Delta, port: int) -> None:
        raise ExecutionError("ExchangeReceiver is fed by the network fabric")
