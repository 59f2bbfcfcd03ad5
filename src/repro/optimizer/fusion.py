"""Physical-plan fusion: collapse stateless operator chains into kernels.

The paper's engine is pipelined — a delta moves through a chain of
stateless operators without materialization.  This pass makes that
explicit in the physical plan: maximal chains of stateless unary
operators (``PFilter``/``PProject``/``PApply``) are replaced by a single
:class:`~repro.runtime.plan.PFused` node, which the executor instantiates
as one :class:`~repro.operators.fused.FusedKernel` driving the chain's
batch transforms back to back.  A chain that feeds a ``PRehash`` fuses
into the exchange's local half: the kernel's single output batch lands
directly in the :class:`~repro.operators.exchange.RehashSender`, so the
sender's local pipeline is one fused hop.

Legality (the REX00x partitioning/delta-handler rules are conservative
here): only stateless unary operators fuse.  A chain *terminates* — and
fusion must decline to cross — at any stateful operator (join, group-by,
fixpoint, union), at an exchange boundary (``PRehash``), and at any
multi-child node.  Cost attribution is untouched: the fused kernel drives
each constituent's own ``transform_batch``, which charges that operator's
per-tuple and per-call costs exactly as the unfused pipeline would, so
``QueryMetrics.fingerprint`` is bit-identical with fusion on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.runtime.plan import (
    PApply,
    PFilter,
    PFused,
    PNode,
    PProject,
    PRehash,
)

#: Operators eligible for fusion: stateless, unary, order-preserving.
FUSABLE = (PFilter, PProject, PApply)

#: Minimum chain length worth collapsing (a single operator is already
#: one virtual call per batch; fusing it would only rename it).
MIN_CHAIN = 2


@dataclass(frozen=True)
class FusionDecision:
    """One maximal stateless chain and what the pass did with it."""

    path: str
    """Plan path of the chain's topmost node (root-relative)."""
    ops: Tuple[str, ...]
    """Constituent operator kinds in data-flow order (deepest first)."""
    fused: bool
    reason: str

    def label(self) -> str:
        return "Fused[" + "→".join(self.ops) + "]"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "ops": list(self.ops),
            "fused": self.fused,
            "reason": self.reason,
            "label": self.label() if self.fused else None,
        }


def _node_kind(node: PNode) -> str:
    name = type(node).__name__
    return name[1:] if name.startswith("P") else name


def _terminator(node: PNode) -> str:
    """Why a chain could not extend below ``node``."""
    if not node.children:
        return "leaf input"
    if len(node.children) > 1:
        return "multi-input operator below"
    child = node.children[0]
    kind = _node_kind(child)
    if isinstance(child, PRehash):
        return f"exchange boundary ({kind})"
    if isinstance(child, FUSABLE):  # pragma: no cover — chain absorbs it
        return "unreachable"
    return f"stateful or source operator ({kind})"


def fuse_plan(root: PNode) -> Tuple[PNode, List[FusionDecision]]:
    """Rewrite ``root``, collapsing maximal stateless chains.

    Returns the (possibly new) root plus one :class:`FusionDecision` per
    maximal chain found — fused or declined — so explain surfaces can
    render the decision.  Subtrees without fusable chains are returned
    unchanged (same object identity).
    """
    decisions: List[FusionDecision] = []

    def rebuild(node: PNode, path: str) -> PNode:
        if isinstance(node, FUSABLE) and len(node.children) == 1:
            chain = [node]
            cursor = node
            while (len(cursor.children) == 1
                   and isinstance(cursor.children[0], FUSABLE)
                   and len(cursor.children[0].children) == 1):
                cursor = cursor.children[0]
                chain.append(cursor)
            tail = tuple(
                rebuild(child, f"{path}/{_node_kind(child)}")
                for child in cursor.children
            )
            ops = tuple(_node_kind(n) for n in reversed(chain))
            if len(chain) >= MIN_CHAIN:
                decisions.append(FusionDecision(
                    path=path, ops=ops, fused=True,
                    reason=(f"{len(chain)} stateless operators; chain ends "
                            f"at {_terminator(cursor)}"),
                ))
                constituents = tuple(replace(n, children=())
                                     for n in reversed(chain))
                return PFused(constituents=constituents, children=tail)
            decisions.append(FusionDecision(
                path=path, ops=ops, fused=False,
                reason=("single stateless operator (need >= "
                        f"{MIN_CHAIN}); chain ends at {_terminator(cursor)}"),
            ))
            if tail == cursor.children:
                return node
            return replace(node, children=tail)
        rebuilt = tuple(
            rebuild(child, f"{path}/{_node_kind(child)}")
            for child in node.children
        )
        if rebuilt == node.children:
            return node
        return replace(node, children=rebuilt)

    return rebuild(root, _node_kind(root)), decisions


def fusion_report(root: PNode) -> List[dict]:
    """The fusion decisions for ``root`` as JSON-ready dicts (what
    ``repro.cli analyze --format json`` embeds under ``"fusion"``)."""
    _, decisions = fuse_plan(root)
    return [d.to_dict() for d in decisions]
