"""Perf-regression gate: compare a fresh wallclock run against a baseline.

The fusion benchmark (``wallclock --fusion``) records per-workload fused
wall seconds in ``BENCH_5.json``.  This gate re-measures the same
workloads now and fails (exit 1) when the engine got slower than the
recorded baseline allows::

    PYTHONPATH=src python -m repro.bench.regress --baseline BENCH_5.json --smoke

Three checks, strictest first:

1. **Fingerprint identity** (always, hard): each workload's fused and
   unfused runs must produce bit-identical simulated metrics — this is
   :func:`~repro.bench.wallclock.run_fusion_benchmark`'s own assertion
   and no tolerance ever applies to it.
2. **Simulated identity vs the baseline** (config match only, hard):
   when the baseline was recorded at the same ``smoke``/``nodes``
   configuration, every workload's ``simulated_seconds`` and ``strata``
   must equal the recorded values exactly — the cost model is
   deterministic, so any drift is a real behavior change, not noise.
3. **Wall clock**: with a config match, each workload's fused wall must
   stay within ``--tolerance`` (default 25%) of the recorded wall.
   Without one — the CI case: a ``--smoke`` run gated against the
   full-size baseline recorded on another machine — absolute walls are
   meaningless, so the gate normalizes: per-workload ratios
   ``r_w = wall_w / baseline_wall_w`` are divided by their geometric
   mean (cancelling machine speed and dataset scale) and a workload
   fails when its normalized ratio exceeds ``1 + --rel-tolerance``
   (default 50%) — i.e. one workload regressed sharply relative to the
   others.

The JSON report (``--out``) records every measurement and verdict so a
failing CI run is diagnosable from the artifact alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional

from repro.bench.wallclock import run_fusion_benchmark

#: Default slack for same-config absolute wall comparisons.
DEFAULT_TOLERANCE = 0.25

#: Default slack for normalized cross-config comparisons (CI noise on
#: shared runners is large; this catches order-of-magnitude regressions
#: of one workload relative to the others, not percent-level drift).
DEFAULT_REL_TOLERANCE = 0.50


def load_baseline(path: str) -> Dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc.get("workloads"), dict):
        raise ValueError(f"{path}: not a wallclock benchmark payload "
                         "(no 'workloads' object)")
    return doc


def baseline_wall(entry: Dict) -> Optional[float]:
    """The comparable wall-clock number from a baseline workload entry:
    columnar (BENCH_10), rewrite (BENCH_9), absint (BENCH_8), fused
    (BENCH_5), or plain batch (BENCH_1) seconds."""
    for key in ("columnar_wall_seconds", "rewrite_wall_seconds",
                "absint_wall_seconds", "fused_wall_seconds",
                "batch_wall_seconds"):
        if entry.get(key):
            return float(entry[key])
    return None


def compare(current: Dict, baseline: Dict,
            tolerance: float = DEFAULT_TOLERANCE,
            rel_tolerance: float = DEFAULT_REL_TOLERANCE) -> Dict:
    """Gate ``current`` (a fresh BENCH_5-shape payload) against
    ``baseline``; returns the report dict (``report["ok"]`` is the
    verdict).  Fingerprint identity within the current run was already
    enforced by the measurement itself.  A baseline workload with no
    re-measured counterpart (e.g. BENCH_9's ``wide_reach``) is skipped.
    """
    config_match = (bool(baseline.get("smoke", False))
                    == bool(current.get("smoke", False))
                    and baseline.get("nodes") == current.get("nodes"))
    report: Dict = {
        "gate": "bench-regress",
        "baseline_benchmark": baseline.get("benchmark"),
        "config_match": config_match,
        "mode": "absolute" if config_match else "normalized",
        "tolerance": tolerance,
        "rel_tolerance": rel_tolerance,
        "workloads": {},
        "failures": [],
        "skipped": [],
    }
    fail = report["failures"].append

    ratios: Dict[str, float] = {}
    for name, entry in current["workloads"].items():
        base_entry = baseline["workloads"].get(name)
        row: Dict = {
            "wall_seconds": entry["fused_wall_seconds"],
            "simulated_seconds": entry["simulated_seconds"],
            "strata": entry["strata"],
        }
        report["workloads"][name] = row
        if base_entry is None:
            report["skipped"].append(name)
            row["verdict"] = "no-baseline"
            continue
        base_wall = baseline_wall(base_entry)
        if base_wall is None:
            report["skipped"].append(name)
            row["verdict"] = "no-baseline-wall"
            continue
        row["baseline_wall_seconds"] = base_wall
        row["ratio"] = round(entry["fused_wall_seconds"] / base_wall, 4)
        ratios[name] = entry["fused_wall_seconds"] / base_wall

        if config_match:
            # Hard simulated-identity check: same config, same seed — the
            # deterministic cost model must reproduce the baseline exactly.
            for key in ("simulated_seconds", "strata"):
                recorded = base_entry.get(key)
                if recorded is not None and recorded != entry[key]:
                    fail(f"{name}: {key} changed — baseline {recorded!r}, "
                         f"now {entry[key]!r} (simulated metrics are "
                         "deterministic; this is a behavior change, not "
                         "noise)")
                    row["verdict"] = "simulated-diverged"
            if row.get("verdict") == "simulated-diverged":
                continue
            limit = base_wall * (1.0 + tolerance)
            row["limit_seconds"] = round(limit, 4)
            if entry["fused_wall_seconds"] > limit:
                fail(f"{name}: wall {entry['fused_wall_seconds']}s exceeds "
                     f"{limit:.4f}s (baseline {base_wall}s "
                     f"+{tolerance * 100:.0f}%)")
                row["verdict"] = "slower"
            else:
                row["verdict"] = "ok"

    for name in baseline["workloads"]:
        if name not in current["workloads"]:
            report["skipped"].append(name)

    if not config_match and ratios:
        # Normalized gate: divide each ratio by the geomean so machine
        # speed and dataset scale cancel; flag outliers only.
        geomean = math.exp(sum(math.log(r) for r in ratios.values())
                           / len(ratios))
        report["geomean_ratio"] = round(geomean, 4)
        for name, ratio in ratios.items():
            row = report["workloads"][name]
            normalized = ratio / geomean
            row["normalized_ratio"] = round(normalized, 4)
            if normalized > 1.0 + rel_tolerance:
                fail(f"{name}: normalized ratio {normalized:.3f} exceeds "
                     f"{1.0 + rel_tolerance:.2f} — this workload regressed "
                     "relative to the others")
                row["verdict"] = "slower"
            else:
                row["verdict"] = "ok"

    report["ok"] = not report["failures"]
    return report


def run_gate(baseline_path: str, smoke: bool = False, nodes: int = 8,
             seed: int = 7, repeats: int = 1,
             tolerance: float = DEFAULT_TOLERANCE,
             rel_tolerance: float = DEFAULT_REL_TOLERANCE) -> Dict:
    """Measure now and gate against the recorded baseline."""
    baseline = load_baseline(baseline_path)
    current = run_fusion_benchmark(smoke=smoke, nodes=nodes, seed=seed,
                                   repeats=repeats, baseline_path=None)
    report = compare(current, baseline, tolerance=tolerance,
                     rel_tolerance=rel_tolerance)
    report["baseline_path"] = baseline_path
    report["current"] = current
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regress",
        description="Perf-regression gate: re-measure the fusion benchmark "
                    "workloads and fail if they regressed against a "
                    "recorded BENCH_5.json baseline.")
    parser.add_argument("--baseline", default="BENCH_5.json",
                        help="baseline payload (BENCH_5 or BENCH_1 shape; "
                             "default BENCH_5.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets (CI smoke run; a non-smoke "
                             "baseline is then gated in normalized mode)")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per mode (min is compared)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="same-config wall slack as a fraction "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--rel-tolerance", type=float,
                        default=DEFAULT_REL_TOLERANCE,
                        help="cross-config normalized-ratio slack "
                             f"(default {DEFAULT_REL_TOLERANCE})")
    parser.add_argument("--out", default=None,
                        help="write the JSON gate report to this path")
    args = parser.parse_args(argv)

    if not os.path.exists(args.baseline):
        print(f"error: baseline {args.baseline!r} not found",
              file=sys.stderr)
        return 2
    try:
        report = run_gate(args.baseline, smoke=args.smoke, nodes=args.nodes,
                          seed=args.seed, repeats=args.repeats,
                          tolerance=args.tolerance,
                          rel_tolerance=args.rel_tolerance)
    except AssertionError as exc:
        # Fingerprint divergence inside the measurement itself.
        print(f"FAIL (fingerprint): {exc}", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    mode = report["mode"]
    for name, row in sorted(report["workloads"].items()):
        detail = f"{row['wall_seconds']}s"
        if "baseline_wall_seconds" in row:
            detail += f" vs {row['baseline_wall_seconds']}s baseline"
        if "normalized_ratio" in row:
            detail += f", normalized ratio {row['normalized_ratio']}"
        print(f"{name}: {row.get('verdict', '?')} ({detail})")
    if report["failures"]:
        print(f"\nFAIL ({mode} gate):", file=sys.stderr)
        for failure in report["failures"]:
            print(f"  {failure}", file=sys.stderr)
        return 1
    skipped = f", {len(report['skipped'])} skipped" if report["skipped"] else ""
    print(f"PASS ({mode} gate, {len(report['workloads'])} workload(s)"
          f"{skipped})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
