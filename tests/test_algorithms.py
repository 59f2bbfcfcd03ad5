"""End-to-end algorithm correctness against independent oracles."""

import pytest

from repro.algorithms import (
    kmeans_reference,
    make_start_table,
    pagerank_networkx,
    pagerank_reference,
    run_adsorption,
    run_kmeans,
    run_pagerank,
    run_sssp,
    sssp_reference,
)
from repro.cluster import Cluster
from repro.datasets import dbpedia_like, geo_points, sample_centroids


def graph_cluster(edges, n=4):
    cluster = Cluster(n)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         edges, "srcId", replication=2)
    return cluster


SMALL_GRAPH = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 0)]


class TestPageRank:
    def test_matches_reference_on_small_graph(self):
        cluster = graph_cluster(SMALL_GRAPH)
        scores, _ = run_pagerank(cluster, tol=0.0)
        expected = pagerank_reference(SMALL_GRAPH)
        assert set(scores) == set(expected)
        for v in expected:
            assert scores[v] == pytest.approx(expected[v], rel=1e-6)

    def test_empty_graph_matches_reference(self):
        assert pagerank_reference([]) == {}
        scores, _ = run_pagerank(graph_cluster([]), tol=0.0)
        assert scores == {}

    def test_matches_networkx_on_generated_graph(self):
        edges = dbpedia_like(300, avg_out_degree=6, seed=11)
        cluster = graph_cluster(edges)
        scores, _ = run_pagerank(cluster, tol=0.0)
        expected = pagerank_networkx(edges)
        for v in expected:
            assert scores[v] == pytest.approx(expected[v], rel=1e-4), v

    def test_delta_and_nodelta_agree(self):
        edges = dbpedia_like(200, avg_out_degree=5, seed=3)
        c1 = graph_cluster(edges)
        delta_scores, delta_m = run_pagerank(c1, mode="delta", tol=0.0)
        c2 = graph_cluster(edges)
        full_scores, full_m = run_pagerank(c2, mode="nodelta",
                                           max_strata=delta_m.num_iterations)
        for v in delta_scores:
            assert full_scores[v] == pytest.approx(delta_scores[v], rel=1e-3)

    def test_delta_mode_processes_fewer_tuples(self):
        """The headline claim: Δ iteration shrinks the per-iteration work."""
        edges = dbpedia_like(300, avg_out_degree=6, seed=4)
        c1 = graph_cluster(edges)
        _, dm = run_pagerank(c1, mode="delta", tol=0.01)
        c2 = graph_cluster(edges)
        _, fm = run_pagerank(c2, mode="nodelta", max_strata=dm.num_iterations)
        assert dm.total_tuples() < fm.total_tuples()

    def test_delta_set_shrinks_over_iterations(self):
        edges = dbpedia_like(400, avg_out_degree=8, seed=5)
        cluster = graph_cluster(edges)
        _, metrics = run_pagerank(cluster, tol=0.01)
        deltas = metrics.delta_series()
        assert deltas[-1] == 0
        peak = max(deltas)
        assert deltas[-2] < peak  # convergence tail

    def test_deterministic_across_cluster_sizes(self):
        edges = dbpedia_like(150, avg_out_degree=5, seed=6)
        results = []
        for n in (1, 3):
            scores, _ = run_pagerank(graph_cluster(edges, n), tol=0.0)
            results.append(scores)
        for v in results[0]:
            assert results[0][v] == pytest.approx(results[1][v], rel=1e-9)


class TestSSSP:
    def run(self, edges, source=0, n=4):
        cluster = graph_cluster(edges, n)
        make_start_table(cluster, source)
        return run_sssp(cluster)

    def test_matches_bfs_reference(self):
        edges = dbpedia_like(300, avg_out_degree=4, seed=7)
        got, _ = self.run(edges)
        expected = sssp_reference(edges, 0)
        assert {v: d for v, (_, d) in got.items()} == expected

    def test_parent_pointers_form_shortest_tree(self):
        edges = SMALL_GRAPH
        got, _ = self.run(edges)
        dists = {v: d for v, (_, d) in got.items()}
        for v, (parent, d) in got.items():
            if v == 0:
                assert parent == -1 and d == 0
            else:
                assert dists[parent] == d - 1
                assert (parent, v) in edges

    def test_unreachable_vertices_absent(self):
        edges = [(0, 1), (5, 6)]
        got, _ = self.run(edges)
        assert set(got) == {0, 1}

    def test_iterations_match_eccentricity(self):
        chain = [(i, i + 1) for i in range(10)]
        got, metrics = self.run(chain, n=2)
        assert {v: d for v, (_, d) in got.items()} == {
            i: float(i) for i in range(11)}
        # 1 base stratum + 10 productive hops + 1 empty closing stratum.
        assert metrics.num_iterations == 12


class TestKMeans:
    def test_matches_lloyd_reference(self):
        points = geo_points(300, n_clusters=4, seed=8, spread=0.8)
        centroids = sample_centroids(points, 4, seed=9)
        cluster = Cluster(3)
        cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                             points, None)
        cluster.create_table("centroids0",
                             ["cid:Integer", "x:Double", "y:Double"],
                             centroids, "cid")
        got, metrics = run_kmeans(cluster)
        expected, _, ref_iters = kmeans_reference(points, centroids)
        live = {cid: pos for cid, pos in got.items()
                if pos != (None, None)}
        for cid, (x, y) in expected.items():
            if cid in live:
                assert live[cid][0] == pytest.approx(x, abs=1e-6)
                assert live[cid][1] == pytest.approx(y, abs=1e-6)

    def test_converges_when_no_points_switch(self):
        points = geo_points(200, n_clusters=3, seed=10, spread=0.5)
        centroids = sample_centroids(points, 3, seed=11)
        cluster = Cluster(2)
        cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                             points, None)
        cluster.create_table("centroids0",
                             ["cid:Integer", "x:Double", "y:Double"],
                             centroids, "cid")
        _, metrics = run_kmeans(cluster)
        assert metrics.delta_series()[-1] == 0
        assert metrics.num_iterations < 120  # genuinely converged


class TestAdsorption:
    def test_label_weights_converge_and_spread(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)]
        seeds = {(0, "A"): 1.0, (2, "B"): 1.0}
        cluster = graph_cluster(edges, 2)
        cluster.create_table("labels",
                             ["v:Integer", "label:Varchar", "w:Double"],
                             [(v, l, w) for (v, l), w in seeds.items()], "v")
        weights, metrics = run_adsorption(cluster, seeds, tol=1e-6,
                                          max_strata=150)
        # Every vertex on the cycle eventually carries both labels.
        for v in range(4):
            assert weights.get((v, "A"), 0) > 0
            assert weights.get((v, "B"), 0) > 0
        # The fixpoint satisfies the damped propagation recurrence.
        outdeg = {0: 1, 1: 2, 2: 1, 3: 1}
        for v in range(4):
            for label in ("A", "B"):
                incoming = sum(weights.get((u, label), 0) / outdeg[u]
                               for u, d in edges if d == v)
                inject = seeds.get((v, label), 0.0)
                assert weights[(v, label)] == pytest.approx(
                    inject + 0.85 * incoming, rel=1e-4)
        assert metrics.delta_series()[-1] == 0

    def test_fixpoint_satisfies_recurrence(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        seeds = {(0, "A"): 1.0}
        cluster = graph_cluster(edges, 2)
        cluster.create_table("labels",
                             ["v:Integer", "label:Varchar", "w:Double"],
                             [(0, "A", 1.0)], "v")
        weights, _ = run_adsorption(cluster, seeds, tol=1e-6, max_strata=150)
        outdeg = {0: 1, 1: 1, 2: 1}
        for v in range(3):
            incoming = sum(weights.get((u, "A"), 0) / outdeg[u]
                           for u, d in edges if d == v)
            inject = seeds.get((v, "A"), 0.0)
            assert weights[(v, "A")] == pytest.approx(
                inject + 0.85 * incoming, rel=1e-5)
