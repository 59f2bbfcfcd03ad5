"""Runtime property suite for the delta-polarity abstract interpretation
(REX3xx), whose proofs the sanitizer asserts.

Two properties, asserted on every benchmark workload (smoke sizes):

1. **Observation consistency**: under the full sanitizer every
   runtime-observed delta kind stays inside the static polarity verdict
   (no REX307, and a direct per-port subset check against the attached
   proofs).
2. **Violation detection**: a delta kind that contradicts a proof trips
   a hard REX307 error (unit-level, via a fabricated operator).
"""

import pytest

from repro.algorithms.sssp import make_start_table
from repro.bench.common import fresh_cluster
from repro.bench.wallclock import _graph_cluster
from repro.common.deltas import Delta, DeltaOp
from repro.datasets import geo_points, sample_centroids


# ---------------------------------------------------------------------------
# Property 1: observed polarities never contradict static verdicts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sanitized_runs():
    """One full-sanitizer execution per workload (the executor attaches
    the polarity proofs), keyed by name; yields (sanitizer, result)
    pairs."""
    from repro.algorithms.kmeans import kmeans_plan
    from repro.algorithms.pagerank import pagerank_plan
    from repro.algorithms.sssp import sssp_plan
    from repro.runtime.executor import ExecOptions, QueryExecutor

    runs = {}

    def options():
        return ExecOptions(batch=True, sanitize="full", flight=False)

    cluster = _graph_cluster(200, 4.0, 4, 7)
    opts = options()
    opts.max_strata = 60
    opts.feedback_mode = "delta"
    runs["pagerank"] = QueryExecutor(cluster, opts).execute(
        pagerank_plan(mode="delta", tol=0.01))

    cluster = _graph_cluster(200, 4.0, 4, 7)
    make_start_table(cluster, 0)
    opts = options()
    opts.max_strata = 200
    runs["sssp"] = QueryExecutor(cluster, opts).execute(sssp_plan())

    points = geo_points(300, n_clusters=4, seed=7)
    centroids = sample_centroids(points, 4, seed=8)
    cluster = fresh_cluster(4)
    cluster.create_table("points",
                         ["pid:Integer", "x:Double", "y:Double"],
                         points, None)
    cluster.create_table("centroids0",
                         ["cid:Integer", "x:Double", "y:Double"],
                         centroids, "cid")
    opts = options()
    opts.max_strata = 120
    runs["kmeans"] = QueryExecutor(cluster, opts).execute(kmeans_plan())
    return runs


@pytest.mark.parametrize("name", ["pagerank", "sssp", "kmeans"])
def test_runtime_polarities_respect_static_proofs(name, sanitized_runs):
    result = sanitized_runs[name]
    sanitizer = result.sanitizer
    assert sanitizer is not None
    report = sanitizer.report
    assert "REX307" not in set(report.codes()), report.format()
    assert not report.has_errors(), report.format()
    observed = sanitizer.observed_polarities()
    assert observed, f"{name}: sanitizer recorded no polarities"


@pytest.mark.parametrize("name", ["pagerank", "sssp", "kmeans"])
def test_observed_kinds_subset_of_armed_proofs(name, sanitized_runs):
    """Re-derive the REX307 check from raw shadow state: every kind a
    port actually saw must sit inside that port's attached proof."""
    sanitizer = sanitized_runs[name].sanitizer
    insert_only = frozenset((DeltaOp.INSERT,))
    checked = 0
    for op_id, shadow in sanitizer._shadows.items():
        op = sanitizer._ops[op_id]
        allowed = getattr(op, "proof_polarity", None)
        insert_ports = getattr(op, "proof_insert_only_ports", None) or ()
        for port, kinds in shadow.observed.items():
            limit = insert_only if port in insert_ports else allowed
            if limit is None:
                continue
            checked += 1
            extra = frozenset(kinds) - limit
            assert not extra, (
                f"{name}: {op.name}@n{shadow.node_id} port {port} saw "
                f"{sorted(k.value for k in extra)} outside the proof "
                f"{sorted(k.value for k in limit)}")
    assert checked, f"{name}: no attached proofs were exercised"


# ---------------------------------------------------------------------------
# Property 2: a contradicting delta is a hard REX307
# ---------------------------------------------------------------------------

class _FakeProvenOp:
    name = "FakeGroupBy"
    proof_polarity = frozenset({DeltaOp.INSERT})

    def push_batch(self, deltas, port=0):
        return None


def test_proof_violation_trips_rex307():
    from repro.analysis.sanitizer import Sanitizer, _OpShadow

    sanitizer = Sanitizer("full")
    op = _FakeProvenOp()
    shadow = _OpShadow(0)
    sanitizer._shadows[id(op)] = shadow
    sanitizer._ops[id(op)] = op
    covered = sanitizer._wrap_polarity(op, shadow, batch=True)
    assert covered, "an exact proof must license assertion mode"

    op.push_batch([Delta(DeltaOp.INSERT, (1, 2))], 0)
    assert "REX307" not in set(sanitizer.report.codes())

    op.push_batch([Delta(DeltaOp.REPLACE, (1, 3), old=(1, 2))], 0)
    codes = set(sanitizer.report.codes())
    assert "REX307" in codes, sanitizer.report.format()
    assert sanitizer.report.has_errors()
    observed = sanitizer.observed_polarities()
    assert observed["FakeGroupBy@n0"][0] == frozenset(
        {DeltaOp.INSERT, DeltaOp.REPLACE})
