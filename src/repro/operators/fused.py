"""FusedKernel: one operator driving a chain of stateless transforms.

The fusion pass (:mod:`repro.optimizer.fusion`) replaces a maximal chain
of stateless operators with a single :class:`FusedKernel` holding the
real constituent operator instances.  Per batch, the kernel calls each
constituent's ``transform_batch`` in data-flow order — the same bodies
the unfused pipeline runs, including their cost charges — and emits the
final batch once.  That removes the per-operator ``emit_batch`` →
``push_batch`` dispatch between chain links while keeping outputs, state,
and charge multisets identical, so ``QueryMetrics.fingerprint`` does not
depend on fusion.

With observability attached the kernel instead delegates to the
constituents wired as a real chain, so each keeps its own ``op.*``
attribution frames and EXPLAIN ANALYZE row; the kernel's row then shows
only the dispatch glue.  The per-tuple path (``batch=False``) always
runs through the wired chain — it is the compatibility path, not the
hot one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.deltas import Delta
from repro.operators.base import Operator


class _Outlet:
    """Terminal stub for the wired constituent chain: routes the last
    constituent's output through the kernel's own emit entry points (so
    instrumentation sees the kernel's tuples_out) and on to its parent."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: "FusedKernel"):
        self.kernel = kernel

    def push_batch(self, deltas, port: int = 0) -> None:
        self.kernel.emit_batch(deltas)

    def receive(self, delta, port: int = 0) -> None:
        self.kernel.emit(delta)


class FusedKernel(Operator):
    """Executes ``constituents`` (stateless operators, data-flow order)
    as one pipeline stage."""

    def __init__(self, constituents: Sequence[Operator],
                 name: Optional[str] = None):
        if len(constituents) < 2:
            raise ValueError("FusedKernel needs at least two constituents")
        # Default label from the constituents' base names only — the
        # parenthesized detail (e.g. Apply's UDF repr) varies per worker
        # instance and would split one plan position into many op_ids.
        super().__init__(
            name or "Fused[" + "→".join(c.name.split("(", 1)[0]
                                        for c in constituents) + "]")
        self.constituents: List[Operator] = list(constituents)
        #: Batches executed through the fused fast path (surfaced by
        #: repro.obs as the ``op.*.fused_batches`` counter).
        self.fused_batches = 0
        self._use_chain = False

    def open(self, ctx) -> None:
        super().open(ctx)
        # Wire the constituents as a real chain ending at an outlet that
        # re-enters this kernel's emit path.  The chain carries the
        # per-tuple mode and, under obs, the batch mode too — each
        # constituent's open() is what installs its instrumentation.
        chain = self.constituents
        for upstream, downstream in zip(chain, chain[1:]):
            downstream.add_input(upstream)
        outlet = _Outlet(self)
        chain[-1].parent = outlet
        chain[-1].parent_port = 0
        for constituent in chain:
            constituent.open(ctx)
        self._use_chain = ctx.obs is not None

    def receive(self, delta: Delta, port: int = 0) -> None:
        # Per-tuple mode: run the wired chain; every constituent charges
        # its own per-tuple cost exactly as the unfused pipeline would.
        self.constituents[0].receive(delta, 0)

    def push_batch(self, deltas: List[Delta], port: int = 0) -> None:
        if not deltas:
            return
        self.fused_batches += 1
        if self._use_chain:
            # Obs mode: real chain dispatch, so each constituent's
            # instrumentation frame attributes its own charges.
            self.constituents[0].push_batch(deltas, 0)
            return
        for constituent in self.constituents:
            deltas = constituent.transform_batch(deltas)
            if not deltas:
                return
        self.emit_batch(deltas)

    def process(self, delta: Delta, port: int) -> None:  # pragma: no cover
        # receive() is overridden; nothing routes through process().
        self.constituents[0].receive(delta, 0)
