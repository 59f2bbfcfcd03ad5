"""Generic wrapped-job driver templates and explicit termination helpers."""

import pytest

from repro.algorithms import (
    make_start_table,
    run_pagerank,
    run_sssp,
    sssp_plan,
)
from repro.cluster import Cluster
from repro.common.errors import PlanError
from repro.datasets import dbpedia_like, lineitem
from repro.datasets.tpch import LINEITEM_SCHEMA
from repro.hadoop import run_wrapped_jobs, simple_agg_job, wrap_job_chain
from repro.hadoop.jobs import MapReduceJob, Mapper, Reducer
from repro.runtime import (
    ExecOptions,
    PScan,
    QueryExecutor,
    after_iterations,
    any_of,
    changed_fraction_below,
    stable_for,
)


class TestWrapJobTemplate:
    def test_single_job_equals_direct_computation(self):
        rows = lineitem(500)
        cluster = Cluster(3)
        cluster.create_table("lineitem", LINEITEM_SCHEMA, rows, None)
        out, metrics = run_wrapped_jobs(
            cluster, [simple_agg_job()], "lineitem",
            kv_extractor=lambda r: (r[0], (r[1], r[5])))
        assert len(out) == 1
        _, (total, count) = out[0]
        kept = [r for r in rows if r[1] > 1]
        assert count == len(kept)
        assert total == pytest.approx(sum(r[5] for r in kept))

    def test_chained_jobs(self):
        """Job 1 counts per key; job 2 histograms the counts."""

        class CountMapper(Mapper):
            def map(self, key, value):
                yield (key % 5, 1)

        class SumReducer(Reducer):
            def reduce(self, key, values):
                yield (key, sum(values))

        class InvertMapper(Mapper):
            def map(self, key, value):
                yield (value, 1)

        job1 = MapReduceJob("count", [CountMapper()], SumReducer(),
                            combiner=SumReducer())
        job2 = MapReduceJob("hist", [InvertMapper()], SumReducer())
        cluster = Cluster(3)
        cluster.create_table("t", ["k:Integer", "v:Integer"],
                             [(i, i) for i in range(50)], "k")
        out, _ = run_wrapped_jobs(cluster, [job1, job2], "t")
        # 50 keys over 5 buckets -> every bucket counts 10; histogram {10: 5}
        assert sorted(out) == [(10, 5)]

    def test_multi_input_job_rejected(self):
        from repro.hadoop.jobs import TagMapper, PRJoinReducer

        job = MapReduceJob("join", [TagMapper("A"), TagMapper("R")],
                           PRJoinReducer())
        with pytest.raises(PlanError):
            wrap_job_chain([job], PScan("t"))

    def test_empty_chain_rejected(self):
        with pytest.raises(PlanError):
            wrap_job_chain([], PScan("t"))


EDGES = dbpedia_like(400, avg_out_degree=5, seed=91)


def graph_cluster():
    cluster = Cluster(3)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         EDGES, "srcId")
    return cluster


class TestTerminationHelpers:
    def test_after_iterations(self):
        opts = ExecOptions(termination=after_iterations(3))
        _, m = run_pagerank(graph_cluster(), tol=0.0, options=opts)
        assert m.num_iterations == 4  # strata 0..3

    def test_changed_fraction_below(self):
        """The paper's explicit condition: stop when <10% of pages moved
        by more than 1% between consecutive iterations."""
        opts = ExecOptions(
            termination=changed_fraction_below(0.10, value_index=1,
                                               tol=0.01))
        _, explicit_m = run_pagerank(graph_cluster(), tol=0.0, options=opts)
        _, full_m = run_pagerank(graph_cluster(), tol=0.0)
        assert explicit_m.num_iterations < full_m.num_iterations

    def test_stable_for(self):
        cluster = graph_cluster()
        make_start_table(cluster, 0)
        opts = ExecOptions(termination=stable_for(2))
        dists, m = run_sssp(cluster, options=opts)
        # Stability tracking must not cut the computation short.
        from repro.algorithms import sssp_reference

        assert {v: d for v, (_, d) in dists.items()} == {
            v: float(d) for v, d in sssp_reference(EDGES, 0).items()}

    def test_any_of(self):
        opts = ExecOptions(termination=any_of(after_iterations(100),
                                              after_iterations(2)))
        _, m = run_pagerank(graph_cluster(), tol=0.0, options=opts)
        assert m.num_iterations == 3


class TestTerminationReason:
    def test_converged(self):
        cluster = graph_cluster()
        make_start_table(cluster, 0)
        _, m = run_sssp(cluster)
        assert m.termination_reason == "converged"

    def test_convergence_wins_over_cap_in_the_same_stratum(self):
        cluster = graph_cluster()
        make_start_table(cluster, 0)
        _, free = run_sssp(cluster)
        _, capped = run_sssp(cluster, options=ExecOptions(
            max_strata=free.num_iterations))
        assert capped.num_iterations == free.num_iterations
        assert capped.termination_reason == "converged"

    def test_strata_cap(self):
        _, m = run_pagerank(graph_cluster(), tol=0.01, max_strata=3)
        assert m.num_iterations == 3
        assert m.termination_reason == "strata_cap"

    def test_explicit(self):
        opts = ExecOptions(termination=after_iterations(3))
        _, m = run_pagerank(graph_cluster(), tol=0.0, options=opts)
        assert m.termination_reason == "explicit"

    def test_non_recursive_has_none(self):
        from repro.rql import RQLSession

        result = RQLSession(graph_cluster()).execute(
            "SELECT count(*) FROM graph")
        assert result.metrics.termination_reason is None

    @pytest.mark.parametrize("max_strata,reason", [
        (200, "converged"), (2, "strata_cap")])
    def test_reason_reaches_explain_analyze_and_flight(self, max_strata,
                                                       reason):
        from repro.obs import ObsContext, explain_analyze

        cluster = graph_cluster()
        make_start_table(cluster, 0)
        obs = ObsContext()
        result = QueryExecutor(cluster, ExecOptions(
            obs=obs, max_strata=max_strata)).execute(sssp_plan())
        m = result.metrics
        assert m.termination_reason == reason
        total = [line for line in explain_analyze(obs, m).splitlines()
                 if line.startswith("total:")]
        assert total == [total[0]]
        assert total[0].endswith(f", ended: {reason}")
        end = result.flight.notes[-1]
        assert end["kind"] == "query_end"
        assert end["termination_reason"] == reason
        assert end["strata"] == m.num_iterations

    def test_reason_is_not_fingerprinted(self):
        """Stopping at stratum 3 by cap or by explicit condition does the
        same simulated work: fingerprints match, reasons differ."""
        explicit = ExecOptions(termination=after_iterations(3))
        _, by_rule = run_pagerank(graph_cluster(), tol=0.0, options=explicit)
        _, by_cap = run_pagerank(graph_cluster(), tol=0.0, max_strata=4)
        assert by_rule.termination_reason != by_cap.termination_reason
        assert by_rule.fingerprint() == by_cap.fingerprint()
