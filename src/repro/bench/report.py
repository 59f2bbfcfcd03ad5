"""Regenerate EXPERIMENTS.md: run every figure and record paper-vs-measured.

Usage::

    python -m repro.bench.report [output_path]

Runs every figure experiment plus the ablations (takes a few minutes) and
writes the paper-vs-measured record.  The static expectations below quote
the paper's claims; the measured columns come from the run.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

from repro.bench import ALL_FIGURES
from repro.bench.ablations import run_all as run_ablations
from repro.bench.common import FigureResult

#: The paper's quantitative claims per figure, keyed by headline metric.
PAPER_CLAIMS: Dict[str, Dict[str, str]] = {
    "fig02": {
        "iterations": "20-30 iterations typical for web/social graphs",
        "monotone_decrease": "overall non-converged count steadily "
                             "decreases (Fig 2b)",
    },
    "fig03": {},
    "fig04": {
        "rex_vs_hadoop_speedup": "> 3x (Fig 4)",
        "udf_overhead_pct": "<= ~10% over built-in",
        "wrap_vs_hadoop_speedup": "~1.1x (wrap slightly faster than "
                                  "Hadoop)",
    },
    "fig05": {
        "speedup_largest": "~100x (almost two orders of magnitude)",
    },
    "fig06": {
        "delta_vs_haloop": "~10x",
        "delta_vs_nodelta": "~4x",
        "wrap_vs_haloop": "~2x",
    },
    "fig07": {
        "delta_vs_haloop": "~10x (nearly an order of magnitude)",
        "delta_vs_nodelta": "~2x",
        "lb_coverage": "6 iterations give 99% reachability",
        "eccentricity": "75 iterations for full reachability",
    },
    "fig08": {
        "delta_vs_haloop": "~3x",
        "delta_vs_hadoop": "~7x",
    },
    "fig09": {
        "delta_vs_haloop": "~1.3x (30% faster)",
        "frontier_spike_ratio": "large spike at hops 7-8",
    },
    "fig10": {
        "single_node_rex_vs_dbms": "~1.3x (30% faster)",
        "speedup_at_max_nodes": "near-linear to 28 nodes (~19x at 25)",
        "rex_beats_idealized_dbms": "REX always beats idealized DBMS X",
    },
    "fig11": {
        "pr_bytes_hadoop_over_delta": "~2x less data (0.97 vs 2.0 MB/s)",
        "sp_bytes_hadoop_over_delta": "even more pronounced than PageRank",
    },
    "fig12": {
        "overhead_ratio": "~2x (incremental halves recovery overhead)",
    },
}


#: Measured results that miss a paper claim, with their cause.
KNOWN_DEVIATIONS: List[str] = [
    "- **Figure 4, `udf_overhead_pct`: 29.389% measured against the "
    "paper's <= ~10%.** The cause is in the cost model. "
    "`CostModel.udf_cost_per_tuple` charges each batched UDC call "
    "`udf_call_cost / udf_batch_size + 0.25 * cpu_tuple_cost` = "
    "4 µs / 64 + 0.5 µs = 0.5625 µs. Input batching amortizes only the "
    "4 µs reflection term; the 0.5 µs marshalling term is paid on every "
    "call. The UDF configuration calls the `line_gt1` predicate on every "
    "row and `usersum` and `usercount` on the 6/7 of rows that pass: about "
    "1.5 µs per row on top of about 4.9 µs of built-in cost per row. The "
    "value is deterministic, and `benchmarks/test_fig04_simple_agg.py` "
    "bounds it below 35% so drift fails.",
]


def generate(path: str = "EXPERIMENTS.md") -> str:
    lines: List[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.bench.report`.  Every table and "
        "figure of the paper's Section 6 is regenerated by the harness in "
        "`src/repro/bench/` (pytest entry points in `benchmarks/`).",
        "",
        "Datasets are seeded synthetic stand-ins scaled down by factors of "
        "~10^3 (see DESIGN.md), and fixed per-job/per-stratum overheads are "
        "scaled by the same factor (`scaled_cost_model`) so startup-to-work "
        "proportions match the paper's.  Absolute seconds are simulated "
        "cost-model time, not wall clock; the claims to check are the "
        "*relative* ones (who wins, by what factor, where inflection "
        "points fall).",
        "",
    ]
    for key, run_fn in ALL_FIGURES.items():
        started = time.perf_counter()
        result: FigureResult = run_fn()
        elapsed = time.perf_counter() - started
        lines.append(f"## {result.figure}: {result.title}")
        lines.append("")
        claims = PAPER_CLAIMS.get(key, {})
        lines.append("| metric | paper | measured |")
        lines.append("|---|---|---|")
        for metric, value in sorted(result.headline.items()):
            claim = claims.get(metric, "—")
            lines.append(f"| {metric} | {claim} | {value:.3f} |")
        for note in result.notes:
            lines.append(f"- {note}")
        lines.append(f"- (experiment wall clock: {elapsed:.1f}s)")
        lines.append("")
        print(f"{result.figure} done in {elapsed:.1f}s", file=sys.stderr)

    lines.append("## Known deviations")
    lines.append("")
    lines.extend(KNOWN_DEVIATIONS)
    lines.append("")

    lines.append("## Ablations (design choices, not paper figures)")
    lines.append("")
    for result in run_ablations():
        lines.append(f"### {result.figure}: {result.title}")
        lines.append("")
        for metric, value in sorted(result.headline.items()):
            lines.append(f"- {metric} = {value:.3f}")
        for note in result.notes:
            lines.append(f"- {note}")
        lines.append("")

    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    out = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    generate(out)
    print(f"wrote {out}", file=sys.stderr)
