"""The observability context: hook installation and cost attribution.

An :class:`ObsContext` is the one object a caller attaches to a query run
(via ``ExecOptions(obs=...)``).  When present, the executor instruments

* every **operator** instance — its ``receive``/``push_batch``/
  ``on_punctuation`` (plus ``run_stratum`` for sources and
  ``handle_message`` for exchange receivers) entry points are wrapped with
  a frame that counts tuples and delta kinds, measures wall-clock
  self-time, and attributes every simulated charge landed while the frame
  is on top of the stack;
* every **worker** — its ``charge_*`` methods additionally report the
  seconds they charged to the current operator frame;
* the **network** — send/delivery of every message is counted per
  exchange and emitted as trace events.

All hooks are *instance-attribute* wrappers: a run without an ObsContext
executes the original unwrapped methods, so the disabled path costs
nothing (the zero-overhead-when-disabled requirement).  The hooks only
observe — they never charge, reorder, or suppress work — so simulated
metrics are bit-identical with observability on or off, and between batch
and per-tuple modes.

Because pushes nest (an operator's ``emit`` runs the parent's push inside
the child's frame), attribution uses a frame stack: a charge belongs to
the operator on top, and wall-clock *self*-time subtracts nested frames —
standard profiler semantics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.deltas import DeltaOp
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import DEFAULT_INTERVAL, TelemetrySampler
from repro.obs.trace import RingBufferSink, Tracer, TraceSink

#: DeltaOp symbol -> registry-safe label.
KIND_LABELS = {"+": "insert", "-": "delete", "->": "replace", "δ": "update"}

# Enum members bound as module locals: the hot counting loops classify
# deltas with identity compares instead of `.op.value` property accesses.
_INS = DeltaOp.INSERT
_DEL = DeltaOp.DELETE
_REP = DeltaOp.REPLACE
_UPD = DeltaOp.UPDATE

_WORKER_CHARGE_METHODS = (
    "charge_cpu", "charge_tuples", "charge_disk_bytes", "charge_disk_seek",
    "charge_net_out", "charge_net_in", "charge_state_access",
)


class OperatorStats:
    """Everything measured about one operator instance on one node."""

    __slots__ = ("op_id", "name", "node", "calls", "tuples_in", "tuples_out",
                 "sim_seconds", "wall_seconds", "kinds")

    def __init__(self, op_id: str, name: str, node: int):
        self.op_id = op_id
        self.name = name
        self.node = node
        self.calls = 0
        self.tuples_in = 0
        self.tuples_out = 0
        self.sim_seconds = 0.0     # simulated resource-seconds charged
        self.wall_seconds = 0.0    # wall-clock self-time (children excluded)
        self.kinds: Dict[str, int] = {}  # input deltas by annotation symbol

    def __repr__(self):
        return (f"OperatorStats({self.op_id}@n{self.node}: "
                f"in={self.tuples_in} sim={self.sim_seconds:.6f}s)")


class ObsContext:
    """Tracer + registry + attribution state for one (or more) query runs.

    ``trace_pushes=False`` keeps stratum/exchange/checkpoint events but
    suppresses the high-volume per-push operator events (the metrics
    registry and EXPLAIN ANALYZE attribution still work in full).
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 trace_pushes: bool = True, telemetry: bool = True,
                 telemetry_interval: float = DEFAULT_INTERVAL):
        self.tracer = tracer if tracer is not None else Tracer(
            sinks=[RingBufferSink()])
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_pushes = trace_pushes
        #: Live time-series sampling (:mod:`repro.obs.timeseries`), on by
        #: default; ``telemetry=False`` keeps PR 2's post-hoc-only shape.
        self.telemetry: Optional[TelemetrySampler] = (
            TelemetrySampler(self.registry, interval=telemetry_interval)
            if telemetry else None)
        self.stratum: Optional[int] = None
        self.unattributed_seconds = 0.0
        self._clock = time.perf_counter
        self._stack: List[list] = []          # [stats, child_wall_seconds]
        self._ops: List[Tuple[object, OperatorStats]] = []
        self._op_counters: Dict[int, int] = {}
        self._workers_instrumented: set = set()
        self._exchange_stats: Dict[str, list] = {}  # [msgs, bytes, deltas]
        self._system_stats: Dict[str, OperatorStats] = {}
        # In-flight message depth (sends minus deliveries/drops) and its
        # per-stratum peak — the telemetry sampler's queue-pressure view.
        self._inflight = 0
        self._inflight_peak = 0

    # ------------------------------------------------------------------
    # Attribution frames
    # ------------------------------------------------------------------
    def _enter(self, stats: OperatorStats) -> list:
        frame = [stats, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        frame[0].wall_seconds += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def record_seconds(self, seconds: float) -> None:
        """Attribute simulated seconds to the operator currently on top."""
        if self._stack:
            self._stack[-1][0].sim_seconds += seconds
        else:
            self.unattributed_seconds += seconds

    def attribution(self) -> Tuple[float, float]:
        """(attributed, unattributed) simulated resource-seconds."""
        return (sum(s.sim_seconds for _, s in self._ops),
                self.unattributed_seconds)

    @contextmanager
    def system_frame(self, name: str) -> Iterator[None]:
        """Attribute charges made inside the block to a synthetic system
        activity (e.g. ``(checkpoint)``, ``(recovery)``) rather than an
        operator — control-plane work shows up named in the cost table
        instead of drowning in the unattributed bucket."""
        stats = self._system_stats.get(name)
        if stats is None:
            stats = OperatorStats(name, name, -1)
            self._system_stats[name] = stats
            self._ops.append((None, stats))
        stats.calls += 1
        frame = self._enter(stats)
        t0 = self._clock()
        try:
            yield
        finally:
            self._leave(frame, self._clock() - t0)

    def operator_stats(self) -> List[OperatorStats]:
        return [s for _, s in self._ops]

    def fusion_groups(self) -> List[Dict]:
        """Fused kernels seen by this context: one entry per instrumented
        :class:`~repro.operators.fused.FusedKernel` instance, with its
        constituent operator names (data-flow order) and the number of
        batches that entered the kernel."""
        groups = []
        for op, stats in self._ops:
            constituents = getattr(op, "constituents", None)
            if constituents is None:
                continue
            groups.append({
                "op_id": stats.op_id,
                "node": stats.node,
                "label": stats.name,
                "constituents": [c.name for c in constituents],
                "fused_batches": getattr(op, "fused_batches", 0),
            })
        return groups

    # ------------------------------------------------------------------
    # Operator instrumentation
    # ------------------------------------------------------------------
    def instrument_operator(self, op, node: int) -> None:
        if getattr(op, "_obs_stats", None) is not None:
            return
        index = self._op_counters.get(node, 0)
        self._op_counters[node] = index + 1
        stats = OperatorStats(f"{op.name}#{index}", op.name, node)
        op._obs_stats = stats
        self._ops.append((op, stats))
        self._wrap_receive(op, stats)
        self._wrap_push_batch(op, stats)
        self._wrap_frame_only(op, stats, "on_punctuation")
        if hasattr(op, "run_stratum"):
            self._wrap_run_stratum(op, stats)
        if hasattr(op, "handle_message"):
            self._wrap_handle_message(op, stats)
        self._wrap_emits(op, stats)

    def _wrap_receive(self, op, stats: OperatorStats) -> None:
        orig = op.receive
        tracer = self.tracer
        clock = self._clock

        def receive(delta, port=0):
            stats.calls += 1
            stats.tuples_in += 1
            op = delta.op
            if op is _INS:
                sym = "+"
            elif op is _UPD:
                sym = "δ"
            elif op is _REP:
                sym = "->"
            else:
                sym = "-"
            kinds = stats.kinds
            kinds[sym] = kinds.get(sym, 0) + 1
            frame = self._enter(stats)
            t0 = clock()
            try:
                orig(delta, port)
            finally:
                elapsed = clock() - t0
                self._leave(frame, elapsed)
                if tracer.enabled and self.trace_pushes:
                    tracer.complete(
                        "push", "operator", stats.node, ts=tracer.now(),
                        dur=elapsed, stratum=self.stratum, op=stats.op_id,
                        port=port, n=1, kinds={sym: 1})

        op.receive = receive

    def _wrap_push_batch(self, op, stats: OperatorStats) -> None:
        orig = op.push_batch
        tracer = self.tracer
        clock = self._clock

        # One record per batch: annotation counts in a single identity-
        # compare pass (no enum `.value` or dict ops per delta).
        def push_batch(deltas, port=0):
            n = len(deltas)
            if n == 0:
                return orig(deltas, port)
            stats.calls += 1
            stats.tuples_in += n
            n_ins = n_del = n_rep = n_upd = 0
            for d in deltas:
                kind = d.op
                if kind is _INS:
                    n_ins += 1
                elif kind is _UPD:
                    n_upd += 1
                elif kind is _REP:
                    n_rep += 1
                else:
                    n_del += 1
            kinds = stats.kinds
            if n_ins:
                kinds["+"] = kinds.get("+", 0) + n_ins
            if n_del:
                kinds["-"] = kinds.get("-", 0) + n_del
            if n_rep:
                kinds["->"] = kinds.get("->", 0) + n_rep
            if n_upd:
                kinds["δ"] = kinds.get("δ", 0) + n_upd
            frame = self._enter(stats)
            t0 = clock()
            try:
                orig(deltas, port)
            finally:
                elapsed = clock() - t0
                self._leave(frame, elapsed)
                if tracer.enabled and self.trace_pushes:
                    batch_kinds = {}
                    if n_ins:
                        batch_kinds["+"] = n_ins
                    if n_del:
                        batch_kinds["-"] = n_del
                    if n_rep:
                        batch_kinds["->"] = n_rep
                    if n_upd:
                        batch_kinds["δ"] = n_upd
                    tracer.complete(
                        "push_batch", "operator", stats.node,
                        ts=tracer.now(), dur=elapsed, stratum=self.stratum,
                        op=stats.op_id, port=port, n=n, kinds=batch_kinds)

        op.push_batch = push_batch

    def _wrap_frame_only(self, op, stats: OperatorStats, name: str) -> None:
        """Attribute charges made inside ``name`` (e.g. punctuation-driven
        flushes) without counting tuples or emitting per-call events."""
        orig = getattr(op, name)
        clock = self._clock

        def wrapped(*args, **kwargs):
            frame = self._enter(stats)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                self._leave(frame, clock() - t0)

        setattr(op, name, wrapped)

    def _wrap_run_stratum(self, op, stats: OperatorStats) -> None:
        orig = op.run_stratum
        tracer = self.tracer
        clock = self._clock

        def run_stratum(stratum):
            stats.calls += 1
            frame = self._enter(stats)
            t0 = clock()
            try:
                orig(stratum)
            finally:
                elapsed = clock() - t0
                self._leave(frame, elapsed)
                if tracer.enabled:
                    tracer.complete("run_stratum", "source", stats.node,
                                    ts=tracer.now(), dur=elapsed,
                                    stratum=stratum, op=stats.op_id)

        op.run_stratum = run_stratum

    def _wrap_handle_message(self, op, stats: OperatorStats) -> None:
        orig = op.handle_message
        clock = self._clock

        def handle_message(msg):
            deltas = msg.deltas
            if deltas:
                n = len(deltas)
                stats.calls += 1
                stats.tuples_in += n
                n_ins = n_del = n_rep = n_upd = 0
                for d in deltas:
                    kind = d.op
                    if kind is _INS:
                        n_ins += 1
                    elif kind is _UPD:
                        n_upd += 1
                    elif kind is _REP:
                        n_rep += 1
                    else:
                        n_del += 1
                kinds = stats.kinds
                if n_ins:
                    kinds["+"] = kinds.get("+", 0) + n_ins
                if n_del:
                    kinds["-"] = kinds.get("-", 0) + n_del
                if n_rep:
                    kinds["->"] = kinds.get("->", 0) + n_rep
                if n_upd:
                    kinds["δ"] = kinds.get("δ", 0) + n_upd
            frame = self._enter(stats)
            t0 = clock()
            try:
                orig(msg)
            finally:
                self._leave(frame, clock() - t0)

        op.handle_message = handle_message

    def _wrap_emits(self, op, stats: OperatorStats) -> None:
        orig_emit = op.emit
        orig_emit_batch = op.emit_batch

        def emit(delta):
            stats.tuples_out += 1
            orig_emit(delta)

        def emit_batch(deltas):
            stats.tuples_out += len(deltas)
            orig_emit_batch(deltas)

        op.emit = emit
        op.emit_batch = emit_batch

    # ------------------------------------------------------------------
    # Worker instrumentation
    # ------------------------------------------------------------------
    def instrument_worker(self, worker) -> None:
        """Wrap every ``charge_*`` so charged seconds reach the frame stack.

        Relies on the charge methods returning the seconds they charged;
        a method returning ``None`` (e.g. a stub in tests) is observed as
        charging nothing.
        """
        if worker.id in self._workers_instrumented:
            return
        self._workers_instrumented.add(worker.id)
        record = self.record_seconds
        for name in _WORKER_CHARGE_METHODS:
            orig = getattr(worker, name)

            def wrapped(*args, _orig=orig, **kwargs):
                seconds = _orig(*args, **kwargs)
                if seconds:
                    record(seconds)
                return seconds

            setattr(worker, name, wrapped)

    # ------------------------------------------------------------------
    # Network instrumentation (installed as SimulatedNetwork.observer)
    # ------------------------------------------------------------------
    def instrument_network(self, network) -> None:
        network.observer = self

    def on_send(self, msg, nbytes: int) -> None:
        entry = self._exchange_stats.get(msg.exchange)
        if entry is None:
            entry = self._exchange_stats[msg.exchange] = [0, 0, 0]
        n_deltas = len(msg.deltas) if msg.deltas else 0
        entry[0] += 1
        entry[1] += nbytes
        entry[2] += n_deltas
        depth = self._inflight + 1
        self._inflight = depth
        if depth > self._inflight_peak:
            self._inflight_peak = depth
        if self.tracer.enabled:
            self.tracer.instant(
                "send", "exchange", msg.src, stratum=self.stratum,
                exchange=msg.exchange, dst=msg.dst, deltas=n_deltas,
                bytes=nbytes, punct=msg.punct is not None)

    def on_deliver(self, msg) -> None:
        self._inflight -= 1
        if self.tracer.enabled and self.trace_pushes:
            self.tracer.instant(
                "recv", "exchange", msg.dst, stratum=self.stratum,
                exchange=msg.exchange, src=msg.src,
                deltas=len(msg.deltas) if msg.deltas else 0,
                punct=msg.punct is not None)

    def on_drop(self, msg) -> None:
        """Mail discarded at a dead destination still left the queue."""
        self._inflight -= 1

    def take_inflight_peak(self) -> int:
        """The peak in-flight message depth since the last call (the
        telemetry sampler reads this once per stratum)."""
        peak = self._inflight_peak
        self._inflight_peak = self._inflight
        return peak

    # ------------------------------------------------------------------
    # Stratum / checkpoint lifecycle (called by the executor)
    # ------------------------------------------------------------------
    def begin_stratum(self, stratum: int) -> None:
        self.stratum = stratum
        self._stratum_t0 = self.tracer.now()
        self.tracer.instant("stratum.begin", "stratum", -1, stratum=stratum)

    def end_stratum(self, stratum: int, seconds: float, bytes_sent: int,
                    delta_count: int, mutable_size: int,
                    tuples_processed: int,
                    node_seconds: Optional[Dict[int, float]] = None) -> None:
        t0 = getattr(self, "_stratum_t0", self.tracer.now())
        self.tracer.complete(
            "stratum.end", "stratum", -1, ts=t0,
            dur=self.tracer.now() - t0, stratum=stratum,
            sim_seconds=seconds, bytes_sent=bytes_sent,
            delta_count=delta_count, mutable_size=mutable_size,
            tuples_processed=tuples_processed)
        reg = self.registry
        reg.series("stratum.seconds").append(stratum, seconds)
        reg.series("stratum.bytes_sent").append(stratum, bytes_sent)
        reg.series("stratum.delta_count").append(stratum, delta_count)
        reg.series("stratum.mutable_size").append(stratum, mutable_size)
        if self.telemetry is not None:
            self.telemetry.sample_stratum(
                self, stratum, seconds, bytes_sent, delta_count,
                mutable_size, tuples_processed, node_seconds=node_seconds)

    def record_fixpoint(self, node: int, stratum: int, delta_out: int,
                        mutable_size: int) -> None:
        """Per-worker Δ-set / mutable-set sizes over strata."""
        reg = self.registry
        reg.series(f"fixpoint.n{node}.delta_out").append(stratum, delta_out)
        reg.series(f"fixpoint.n{node}.mutable_size").append(
            stratum, mutable_size)

    def checkpoint_write(self, node: int, n_deltas: int,
                         n_replicas: int) -> None:
        self.registry.counter("checkpoint.deltas_replicated").inc(n_deltas)
        self.tracer.instant("checkpoint.write", "checkpoint", node,
                            stratum=self.stratum, deltas=n_deltas,
                            replicas=n_replicas)

    def checkpoint_restore(self, victim: int, rows_restored: int,
                           rows_reread: int) -> None:
        self.registry.counter("checkpoint.rows_restored").inc(rows_restored)
        self.tracer.instant("checkpoint.restore", "checkpoint", victim,
                            stratum=self.stratum, restored=rows_restored,
                            reread=rows_reread)

    # ------------------------------------------------------------------
    # Registry publishing
    # ------------------------------------------------------------------
    def publish(self) -> MetricsRegistry:
        """Sync per-operator stats, memo caches, and channel counters into
        the registry.  Assignment-based, so calling it repeatedly (or after
        a restart re-execution) is idempotent."""
        reg = self.registry
        for op, stats in self._ops:
            base = f"op.n{stats.node}.{stats.op_id}"
            reg.counter(f"{base}.calls").value = stats.calls
            reg.counter(f"{base}.tuples_in").value = stats.tuples_in
            reg.counter(f"{base}.tuples_out").value = stats.tuples_out
            reg.gauge(f"{base}.sim_seconds").set(stats.sim_seconds)
            reg.gauge(f"{base}.wall_seconds").set(stats.wall_seconds)
            for sym, count in stats.kinds.items():
                label = KIND_LABELS.get(sym, sym)
                reg.counter(f"{base}.deltas_in.{label}").value = count
            if hasattr(op, "memo_hits"):
                kind = ("rehash" if hasattr(op, "exchange") else "groupby")
                memo = f"memo.{kind}.n{stats.node}.{stats.op_id}"
                reg.counter(f"{memo}.hits").value = op.memo_hits
                reg.counter(f"{memo}.misses").value = op.memo_misses
                reg.counter(f"{memo}.evictions").value = op.memo_evictions
            fused_batches = getattr(op, "fused_batches", None)
            if fused_batches is not None:
                reg.counter(f"{base}.fused_batches").value = fused_batches
            state_size = getattr(op, "state_size", None)
            if state_size is not None:
                reg.gauge(f"{base}.state_size").set(state_size())
            breakdown = getattr(op, "state_breakdown", None)
            if breakdown is not None:
                for part, value in breakdown().items():
                    reg.gauge(f"{base}.state.{part}").set(value)
        for exchange, (msgs, nbytes, deltas) in self._exchange_stats.items():
            base = f"net.exchange.{exchange}"
            reg.counter(f"{base}.messages").value = msgs
            reg.counter(f"{base}.bytes").value = nbytes
            reg.counter(f"{base}.deltas").value = deltas
        return reg

    def close(self) -> None:
        self.tracer.close()
