"""Property suite: SSSP and PageRank against the independent oracles.

Hypothesis crosses small adversarial graphs (empty, self-loops,
duplicate edges, dangling vertices, disconnected parts, negative and
10^12 vertex ids) with cluster sizes 1-5, an optional injected node
failure (``FailureSpec(after_stratum, node)``) under both recovery modes,
and batch or per-tuple execution.  Every run must match the oracle in
:mod:`repro.algorithms.reference`: SSSP exactly, PageRank within the
L1 error its relative convergence threshold allows.  ``RecoveryError`` is
an allowed outcome only when the failed node held rows that no other
node replicates; any other exception, or a wrong answer, fails the
property.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    make_start_table,
    pagerank_reference,
    run_pagerank,
    run_sssp,
    sssp_reference,
)
from repro.cluster import Cluster
from repro.common.errors import RecoveryError
from repro.runtime import ExecOptions, FailureSpec

#: Vertex ids: a dense small range (so self-loops, duplicates and shared
#: endpoints are common) plus negative and 10^12 outliers.
VERTEX = st.one_of(st.integers(min_value=-3, max_value=6),
                   st.sampled_from([-10 ** 12, 10 ** 12, 10 ** 12 + 1]))
EDGES = st.lists(st.tuples(VERTEX, VERTEX), max_size=14)

TOL = 0.01
DAMPING = 0.85

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def run_config(draw):
    """Cluster size, graph replication, failure and execution mode."""
    nodes = draw(st.integers(min_value=1, max_value=5))
    failure = draw(st.one_of(
        st.none(),
        st.builds(FailureSpec,
                  after_stratum=st.integers(min_value=1, max_value=4),
                  node=st.integers(min_value=0, max_value=nodes - 1))))
    return dict(nodes=nodes,
                replication=draw(st.integers(min_value=1, max_value=3)),
                failure=failure,
                recovery=draw(st.sampled_from(["incremental", "restart"])),
                batch=draw(st.booleans()))


def _graph_cluster(edges, config) -> Cluster:
    cluster = Cluster(config["nodes"])
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         edges, "srcId", replication=config["replication"])
    return cluster


def _options(config) -> ExecOptions:
    return ExecOptions(failure=config["failure"],
                       recovery=config["recovery"], batch=config["batch"])


def _lost_unreplicated_rows(cluster: Cluster, node: int) -> bool:
    """Whether ``node`` held primary rows that no other node replicates."""
    for name in cluster.catalog.names():
        table = cluster.catalog.get(name)
        if not table.primaries.get(node):
            continue
        if table.replication < 2 or len(cluster.node_ids()) < 2:
            return True
    return False


def _run_or_allowed_loss(cluster, config, run):
    """Run the query; ``None`` if it raised an allowed ``RecoveryError``."""
    try:
        return run()
    except RecoveryError:
        failure = config["failure"]
        assert failure is not None, "RecoveryError without a failure"
        assert _lost_unreplicated_rows(cluster, failure.node), (
            "RecoveryError although every row of the failed node has a "
            "live replica")
        return None


@PROPERTY_SETTINGS
@given(edges=EDGES, source=VERTEX, config=run_config())
def test_sssp_matches_bfs_oracle(edges, source, config):
    cluster = _graph_cluster(edges, config)
    make_start_table(cluster, source)
    got = _run_or_allowed_loss(
        cluster, config,
        lambda: run_sssp(cluster, options=_options(config))[0])
    if got is None:
        return
    assert {v: d for v, (_, d) in got.items()} == sssp_reference(edges,
                                                                 source)


@PROPERTY_SETTINGS
@given(edges=EDGES, config=run_config())
def test_pagerank_matches_reference_within_tolerance(edges, config):
    cluster = _graph_cluster(edges, config)
    got = _run_or_allowed_loss(
        cluster, config,
        lambda: run_pagerank(cluster, tol=TOL, max_strata=400,
                             options=_options(config))[0])
    if got is None:
        return
    expected = pagerank_reference(edges, damping=DAMPING)
    assert set(got) == set(expected)
    # PRAgg's tol is relative: a page stops propagating once its score
    # moves by at most tol of its value.  The edge matrix is column
    # sub-stochastic, so damping amplifies that residual by at most
    # 1 / (1 - d) in the L1 norm (a single page may see more).
    error = sum(abs(got[v] - score) for v, score in expected.items())
    mass = sum(abs(score) for score in expected.values())
    assert error <= TOL / (1 - DAMPING) * mass, (got, expected)
