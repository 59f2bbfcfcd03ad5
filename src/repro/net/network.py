"""Point-to-point batched message transport between worker nodes.

The network is simulated: delivery is immediate and reliable (failures are
injected at the *node* level by the cluster, not as message loss), but every
byte is accounted against the sending and receiving nodes' network resource
usage so bandwidth figures (paper Figure 11) fall out of real traffic counts.

Messages are addressed to ``(dst_node, exchange_id)`` pairs; an *exchange* is
one cross-worker edge of a physical plan (a rehash, a collect, a checkpoint
stream).  The receiving side registers a handler per exchange.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation
from repro.common.sizes import row_bytes, value_bytes

PUNCT_BYTES = 16


@dataclass(slots=True)
class Message:
    """One batched transmission on an exchange.

    Either ``deltas`` (a batch of annotated tuples) or ``punct`` is set.
    ``sender`` identifies the source node so n-ary receivers can count
    punctuation from every upstream worker.
    """

    src: int
    dst: int
    exchange: str
    deltas: Optional[List[Any]] = None
    punct: Optional[Punctuation] = None
    meta: Any = None
    """Optional transport annotation.  An ``int`` is a precomputed wire
    size for the whole message (``size_bytes()`` of it, computed once by
    a sender that already walked the deltas — e.g. the executor's
    memoized checkpoint replication); :meth:`SimulatedNetwork.send` then
    accounts that size without recounting the payload."""

    def size_bytes(self) -> int:
        if self.punct is not None:
            return PUNCT_BYTES
        total = 0
        size_row = row_bytes
        size_value = value_bytes
        for d in self.deltas or ():
            total += 1 + size_row(d.row)
            old = d.old
            if old is not None:
                total += size_row(old)
            payload = d.payload
            if payload is not None:
                total += size_value(payload)
        return total + PUNCT_BYTES  # batch framing


@dataclass(slots=True)
class LinkStats:
    """Traffic accounting for one directed node pair."""

    messages: int = 0
    bytes: int = 0


class SimulatedNetwork:
    """FIFO message fabric with per-node byte accounting.

    Delivery is deferred: :meth:`send` enqueues; the cluster's event loop
    drains queues via :meth:`pop`.  Local sends (src == dst) are queued the
    same way, preserving the paper's message-driven execution, but cost
    nothing on the wire.
    """

    def __init__(self, on_bytes: Optional[Callable[[int, int, int], None]] = None,
                 on_bytes_fanout: Optional[Callable[[int, List[int], int], None]] = None):
        """``on_bytes(src, dst, nbytes)`` is invoked for every remote send so
        the cluster can charge network time to both endpoints.
        ``on_bytes_fanout(src, dsts, nbytes)`` is the bulk form used by
        :meth:`send_punct_fanout`: one call covering ``len(dsts)`` equal
        sends, charged so the endpoint tallies are identical to that many
        ``on_bytes`` calls."""
        self._queue: Deque[Message] = deque()
        self._handlers: Dict[Tuple[int, str], Callable[[Message], None]] = {}
        self._on_bytes = on_bytes
        self._on_bytes_fanout = on_bytes_fanout
        self.links: Dict[Tuple[int, int], LinkStats] = {}
        self.total_bytes = 0
        self.bytes_by_node: Dict[int, int] = {}
        self._dead: set = set()
        #: Armed by the executor on every unperturbed run: enables the
        #: observer-free drain loop and bulk punctuation fanout.  Every
        #: fast path preserves message order, delivery semantics, and
        #: charge multisets exactly; paths that an observer must see fall
        #: back to the hooked implementations automatically.
        self.fast_path = False
        #: Optional observability hook (repro.obs / the sanitizer): an
        #: object with ``on_send(msg, wire_bytes)`` / ``on_deliver(msg)``
        #: and, optionally, ``on_drop(msg)`` for mail discarded at dead
        #: destinations.  Purely passive — it never affects delivery or
        #: byte accounting.
        self.observer = None

    def register(self, node: int, exchange: str,
                 handler: Callable[[Message], None]) -> None:
        """Route messages for ``(node, exchange)`` to ``handler``."""
        key = (node, exchange)
        if key in self._handlers:
            raise ExecutionError(f"exchange {exchange!r} already registered on node {node}")
        self._handlers[key] = handler

    def unregister_node(self, node: int) -> None:
        """Drop all handlers on a failed node; in-flight messages to it are
        discarded at delivery time."""
        self._dead.add(node)
        for key in [k for k in self._handlers if k[0] == node]:
            del self._handlers[key]

    def unregister_exchanges(self, exchanges) -> None:
        """Drop the handlers of ``exchanges`` on every node, and any queued
        messages addressed to them (a query that raised mid-stratum can
        leave mail behind).  Keys already gone (e.g. dropped by
        :meth:`unregister_node`) are skipped."""
        names = set(exchanges)
        for key in [k for k in self._handlers if k[1] in names]:
            del self._handlers[key]
        queue = self._queue
        if queue:
            kept = [m for m in queue if m.exchange not in names]
            queue.clear()
            queue.extend(kept)

    def revive_node(self, node: int) -> None:
        self._dead.discard(node)

    def send(self, msg: Message) -> None:
        if msg.src in self._dead:
            return  # a dead node cannot transmit
        nbytes = 0  # local sends cost nothing on the wire
        if msg.src != msg.dst:
            meta = msg.meta
            # A sender that already walked the payload ships its wire
            # size precomputed (int meta); recounting via size_bytes()
            # would walk every delta a second time.
            nbytes = meta if type(meta) is int else msg.size_bytes()
            self.total_bytes += nbytes
            self.bytes_by_node[msg.src] = self.bytes_by_node.get(msg.src, 0) + nbytes
            stats = self.links.setdefault((msg.src, msg.dst), LinkStats())
            stats.messages += 1
            stats.bytes += nbytes
            if self._on_bytes is not None:
                self._on_bytes(msg.src, msg.dst, nbytes)
        if self.observer is not None:
            self.observer.on_send(msg, nbytes)
        self._queue.append(msg)

    def send_punct_fanout(self, src: int, dsts, exchange: str,
                          punct: Punctuation) -> None:
        """Broadcast one punctuation to every node in ``dsts`` (in order).

        The message stream, enqueue order, link stats, and per-endpoint
        charge multisets are identical to ``len(dsts)`` individual
        :meth:`send` calls; the bulk form only batches the bookkeeping
        (one ``total_bytes`` update, one sender net-out tally covering
        all remote copies).  Falls back to per-message sends whenever an
        observer is attached or the fast path is off, so hooks see every
        message individually.
        """
        if src in self._dead:
            return  # a dead node cannot transmit
        if self.observer is not None or not self.fast_path:
            for dst in dsts:
                self.send(Message(src=src, dst=dst, exchange=exchange,
                                  punct=punct))
            return
        links = self.links
        append = self._queue.append
        remotes: List[int] = []
        for dst in dsts:
            if dst != src:
                stats = links.get((src, dst))
                if stats is None:
                    stats = links[(src, dst)] = LinkStats()
                stats.messages += 1
                stats.bytes += PUNCT_BYTES
                remotes.append(dst)
            append(Message(src=src, dst=dst, exchange=exchange, punct=punct))
        if remotes:
            nbytes = len(remotes) * PUNCT_BYTES
            self.total_bytes += nbytes
            self.bytes_by_node[src] = self.bytes_by_node.get(src, 0) + nbytes
            if self._on_bytes_fanout is not None:
                self._on_bytes_fanout(src, remotes, PUNCT_BYTES)
            elif self._on_bytes is not None:
                for dst in remotes:
                    self._on_bytes(src, dst, PUNCT_BYTES)

    def pending(self) -> int:
        return len(self._queue)

    def pop(self) -> Optional[Message]:
        """Dequeue the next deliverable message (dropping mail for the dead)."""
        while self._queue:
            msg = self._queue.popleft()
            if msg.dst in self._dead:
                if self.observer is not None:
                    on_drop = getattr(self.observer, "on_drop", None)
                    if on_drop is not None:
                        on_drop(msg)
                continue
            return msg
        return None

    def dispatch(self, msg: Message) -> None:
        """Deliver a popped message to its registered handler."""
        handler = self._handlers.get((msg.dst, msg.exchange))
        if handler is None:
            raise ExecutionError(
                f"no handler for exchange {msg.exchange!r} on node {msg.dst}"
            )
        if self.observer is not None:
            self.observer.on_deliver(msg)
        handler(msg)

    def drain(self) -> int:
        """Deliver queued messages until quiescent; returns count delivered.

        Handlers may send further messages; those are delivered too.  This is
        the inner loop of stratified execution: a stratum is complete when
        the fabric is quiet and all punctuation has settled.
        """
        delivered = 0
        if self.fast_path and self.observer is None and not self._dead:
            # Observer-free drain: same FIFO order and handler dispatch
            # as pop()+dispatch(), minus the per-message hook probes and
            # dead-mail checks — neither can fire on this configuration
            # (and a mid-run failure empties into the hooked loop below
            # on the next call, because ``_dead`` becomes non-empty).
            queue = self._queue
            handlers = self._handlers
            while queue:
                msg = queue.popleft()
                handler = handlers.get((msg.dst, msg.exchange))
                if handler is None:
                    raise ExecutionError(
                        f"no handler for exchange {msg.exchange!r} on "
                        f"node {msg.dst}"
                    )
                handler(msg)
                delivered += 1
            return delivered
        while True:
            msg = self.pop()
            if msg is None:
                return delivered
            self.dispatch(msg)
            delivered += 1
