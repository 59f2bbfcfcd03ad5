"""Per-query execution metrics.

Everything the paper's evaluation section plots is derived from these
records: per-iteration and cumulative runtime (Figures 6–9), Δ-set sizes
(Figures 2–3), bytes on the wire and average per-node bandwidth (Figure 11),
and total runtimes (Figures 4, 5, 10, 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class IterationMetrics:
    """What happened during one stratum (iteration) of a query."""

    stratum: int
    seconds: float = 0.0
    bytes_sent: int = 0
    tuples_processed: int = 0
    delta_count: int = 0
    """Size of the Δᵢ set: newly derived tuples admitted by fixpoints."""
    mutable_size: int = 0
    """Size of the mutable set held in fixpoint state after the stratum."""


@dataclass
class QueryMetrics:
    """Aggregated over a whole query execution."""

    startup_seconds: float = 0.0
    iterations: List[IterationMetrics] = field(default_factory=list)
    recovery_seconds: float = 0.0
    num_nodes: int = 1
    result_rows: int = 0
    termination_reason: Optional[str] = None
    """Why a recursive query's strata loop stopped: ``"converged"`` (a
    stratum admitted no new deltas), ``"strata_cap"`` (it hit
    ``ExecOptions.max_strata`` first) or ``"explicit"`` (the
    ``ExecOptions.termination`` condition fired).  ``None`` for a
    non-recursive query.  Not part of :meth:`fingerprint`."""

    def begin_iteration(self, stratum: int) -> IterationMetrics:
        it = IterationMetrics(stratum)
        self.iterations.append(it)
        return it

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    def total_seconds(self) -> float:
        return (self.startup_seconds + self.recovery_seconds
                + sum(it.seconds for it in self.iterations))

    def total_bytes(self) -> int:
        return sum(it.bytes_sent for it in self.iterations)

    def total_tuples(self) -> int:
        return sum(it.tuples_processed for it in self.iterations)

    def per_iteration_seconds(self) -> List[float]:
        return [it.seconds for it in self.iterations]

    def cumulative_seconds(self) -> List[float]:
        """Cumulative runtime series as plotted in Figures 6a–9a (startup
        folded into the first iteration, as the paper folds data loading)."""
        out: List[float] = []
        acc = self.startup_seconds + self.recovery_seconds
        for it in self.iterations:
            acc += it.seconds  # noqa: REX103 — prefix sum, inherently sequential
            out.append(acc)
        return out

    def delta_series(self) -> List[int]:
        return [it.delta_count for it in self.iterations]

    def avg_bandwidth_per_node(self) -> float:
        """Average bytes/second/node over the query (Figure 11's metric):
        total data sent divided by node count and query duration."""
        duration = self.total_seconds()
        if duration <= 0 or self.num_nodes == 0:
            return 0.0
        return self.total_bytes() / self.num_nodes / duration

    def fingerprint(self) -> tuple:
        """Everything the simulator decides, as a hashable digest.

        Two runs of the same query must fingerprint identically across
        execution modes (batch vs per-tuple) and with or without
        observability instrumentation attached — the engine's
        bit-identical-simulation contract."""
        return (
            self.num_iterations,
            tuple((it.seconds, it.bytes_sent, it.delta_count,
                   it.tuples_processed, it.mutable_size)
                  for it in self.iterations),
            self.total_seconds(),
        )
