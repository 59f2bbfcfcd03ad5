"""The delta (annotated tuple) model — Definition 1 of the REX paper.

A delta is a pair ``(alpha, t)`` of an annotation and a tuple.  The annotation
is one of:

* ``+()``    — insert ``t`` into operator state (:data:`DeltaOp.INSERT`);
* ``-()``    — delete ``t`` from operator state (:data:`DeltaOp.DELETE`);
* ``->(t')`` — ``t`` replaces the existing tuple ``t'`` (:data:`DeltaOp.REPLACE`);
* ``δ(E)``   — a programmable *value update* carrying an arbitrary payload
  ``E`` interpreted by downstream stateful operators via user-defined delta
  handlers (:data:`DeltaOp.UPDATE`).

Rows are plain Python tuples; schemas live alongside the dataflow (see
:mod:`repro.common.schema`).  Deltas are immutable, hashable value objects so
they can sit in fixpoint duplicate-elimination sets and in replicated
checkpoint buffers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Tuple

Row = Tuple[Any, ...]


class DeltaOp(enum.Enum):
    """Annotation kind on a delta (Definition 1)."""

    INSERT = "+"
    DELETE = "-"
    REPLACE = "->"
    UPDATE = "δ"

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"DeltaOp.{self.name}"


# Bound once at module level: Delta.__init__ runs hundreds of thousands of
# times per query, so every name it touches should be a single global load.
_REPLACE = DeltaOp.REPLACE
_UPDATE = DeltaOp.UPDATE


@dataclass(frozen=True, slots=True, init=False)
class Delta:
    """An annotated tuple flowing through the dataflow.

    Attributes:
        op: the annotation kind.
        row: the tuple ``t``.
        old: for :data:`DeltaOp.REPLACE`, the tuple ``t'`` being replaced;
            ``None`` otherwise.
        payload: for :data:`DeltaOp.UPDATE`, the expression/parameters ``E``
            interpreted by user delta handlers; ``None`` otherwise.

    Stateless operators propagate deltas unchanged apart from their normal
    row transformation (Section 3.3, "Deltas and stateless query operators"):
    use :meth:`with_row` to carry the annotation onto a transformed row.
    """

    op: DeltaOp
    row: Row
    old: Optional[Row] = None
    payload: Any = None

    def __init__(self, op: DeltaOp, row: Row, old: Optional[Row] = None,
                 payload: Any = None):
        # Hand-written (init=False): deltas are constructed hundreds of
        # thousands of times per query, so field assignment and validation
        # share one frame instead of __init__ + __post_init__.
        _set_op(self, op)
        _set_row(self, row)
        _set_old(self, old)
        _set_payload(self, payload)
        if old is not None:
            if op is not _REPLACE:
                raise ValueError(f"{op.name} delta must not carry old=")
        elif op is _REPLACE:
            raise ValueError(
                "REPLACE delta requires the replaced tuple (old=)")
        if payload is not None and op is not _UPDATE:
            raise ValueError(f"{op.name} delta must not carry payload=")

    def with_row(self, row: Row, old: Optional[Row] = None) -> "Delta":
        """Return a copy carrying the same annotation over a new row.

        ``old`` must be supplied iff this is a REPLACE delta (stateless
        operators transform both the new and the replaced image).
        """
        if self.op is DeltaOp.REPLACE:
            if old is None:
                raise ValueError("REPLACE delta requires a transformed old row")
            return Delta(DeltaOp.REPLACE, row, old=old)
        return Delta(self.op, row, payload=self.payload)

    def inverted(self) -> "Delta":
        """Return the delta that undoes this one (insert<->delete).

        REPLACE inverts to the reverse replacement.  UPDATE deltas have
        user-defined semantics and cannot be mechanically inverted.
        """
        if self.op is DeltaOp.INSERT:
            return Delta(DeltaOp.DELETE, self.row)
        if self.op is DeltaOp.DELETE:
            return Delta(DeltaOp.INSERT, self.row)
        if self.op is DeltaOp.REPLACE:
            return Delta(DeltaOp.REPLACE, self.old, old=self.row)
        raise ValueError("UPDATE deltas are not mechanically invertible")

    def __repr__(self):
        """Compact, annotation-first notation matching the paper's
        Definition 1: ``Δ+(...)``, ``Δ-(...)``, ``Δ->(new|old=...)``,
        ``Δδ(row|payload=...)``.  The annotation symbol always leads, so a
        log line's kind is readable without parsing row images."""
        row = ",".join(repr(v) for v in self.row)
        if self.op is DeltaOp.REPLACE:
            old = ",".join(repr(v) for v in self.old)
            return f"Δ->({row}|old=({old}))"
        if self.op is DeltaOp.UPDATE:
            return f"Δδ(({row})|payload={self.payload!r})"
        return f"Δ{self.op.value}({row})"


# The slot descriptors' bound setters write a field directly, bypassing the
# frozen __setattr__ without object.__setattr__'s name lookup.
_set_op = Delta.op.__set__
_set_row = Delta.row.__set__
_set_old = Delta.old.__set__
_set_payload = Delta.payload.__set__


def insert(row: Row) -> Delta:
    """Build a ``+()`` insertion delta."""
    return Delta(DeltaOp.INSERT, tuple(row))


def delete(row: Row) -> Delta:
    """Build a ``-()`` deletion delta."""
    return Delta(DeltaOp.DELETE, tuple(row))


def replace(old: Row, new: Row) -> Delta:
    """Build a ``->(t')`` replacement delta: ``new`` replaces ``old``."""
    return Delta(DeltaOp.REPLACE, tuple(new), old=tuple(old))


def update(row: Row, payload: Any) -> Delta:
    """Build a ``δ(E)`` value-update delta with user-interpreted payload."""
    return Delta(DeltaOp.UPDATE, tuple(row), payload=payload)


def apply_deltas(rows: set, deltas) -> set:
    """Apply a sequence of insert/delete/replace deltas to a set of rows.

    This is the *reference semantics* against which stateful operators are
    property-tested: applying the deltas an operator emits to a materialised
    copy of its output must equal recomputing the output from scratch.
    UPDATE deltas are rejected because their meaning is handler-defined.
    """
    out = set(rows)
    for d in deltas:
        if d.op is DeltaOp.INSERT:
            out.add(d.row)
        elif d.op is DeltaOp.DELETE:
            out.discard(d.row)
        elif d.op is DeltaOp.REPLACE:
            out.discard(d.old)
            out.add(d.row)
        else:
            raise ValueError("apply_deltas cannot interpret UPDATE deltas")
    return out
