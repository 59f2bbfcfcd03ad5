"""Integration tests: hand-built physical plans on the simulated cluster."""

import sys

import pytest

from repro.cluster import Cluster
from repro.common import insert
from repro.common.errors import PlanError
from repro.operators import make_key_fn
from repro.runtime import (
    ExecOptions,
    PCollect,
    PFeedback,
    PFilter,
    PFixpoint,
    PGroupBy,
    PJoin,
    PProject,
    PRehash,
    PScan,
    PhysicalPlan,
    QueryExecutor,
)
from repro.udf import AggregateSpec, Count, Min, Sum
from repro.udf.aggregates import WhileDeltaHandler


def make_cluster(n=4, **table_kwargs):
    cluster = Cluster(n)
    return cluster


class TestNonRecursive:
    def test_scan_collect_returns_all_rows(self):
        cluster = make_cluster()
        rows = [(i, i * 10) for i in range(50)]
        cluster.create_table("t", ["id:Integer", "v:Integer"], rows, "id")
        plan = PhysicalPlan(PScan("t"))
        result = QueryExecutor(cluster).execute(plan)
        assert sorted(result.rows) == rows

    def test_filter_aggregate_matches_direct_computation(self):
        """The Figure 4 query shape: WHERE + global SUM/COUNT."""
        cluster = make_cluster()
        rows = [(i, i % 7, float(i % 13)) for i in range(200)]
        cluster.create_table("lineitem",
                             ["k:Integer", "linenumber:Integer", "tax:Double"],
                             rows, "k")
        plan = PhysicalPlan(PGroupBy(
            key_fn=lambda r: (0,),
            specs_factory=lambda: [
                AggregateSpec(Sum(), arg=lambda r: r[2], output="s"),
                AggregateSpec(Count(), arg=lambda r: r[0], output="c"),
            ],
            children=(PRehash(key_fn=lambda r: (0,), children=(
                PFilter(predicate=lambda r: r[1] > 1, children=(PScan("lineitem"),)),
            )),),
        ))
        result = QueryExecutor(cluster).execute(plan)
        expect = [r for r in rows if r[1] > 1]
        assert len(result.rows) == 1
        key, s, c = result.rows[0]
        assert s == pytest.approx(sum(r[2] for r in expect))
        assert c == len(expect)

    def test_grouped_aggregate_across_rehash(self):
        cluster = make_cluster(3)
        rows = [(i, i % 5, i) for i in range(100)]
        cluster.create_table("t", ["id:Integer", "g:Integer", "v:Integer"],
                             rows, "id")
        plan = PhysicalPlan(PGroupBy(
            key_fn=lambda r: (r[1],),
            specs_factory=lambda: [AggregateSpec(Sum(), arg=lambda r: r[2])],
            children=(PRehash(key_fn=lambda r: (r[1],),
                              children=(PScan("t"),)),),
        ))
        result = QueryExecutor(cluster).execute(plan)
        expected = {}
        for _, g, v in rows:
            expected[g] = expected.get(g, 0) + v
        assert sorted(result.rows) == sorted((g, s) for g, s in expected.items())

    def test_distributed_hash_join(self):
        cluster = make_cluster(3)
        cluster.create_table("r", ["a:Integer", "x:Integer"],
                             [(i, i * 2) for i in range(30)], "a")
        cluster.create_table("s", ["a:Integer", "y:Integer"],
                             [(i % 10, i) for i in range(40)], None)
        key = lambda r: (r[0],)
        plan = PhysicalPlan(PJoin(
            left_key=key, right_key=key, handler_factory=None,
            children=(
                PScan("r"),                       # already partitioned by a
                PRehash(key_fn=key, children=(PScan("s"),)),
            ),
        ))
        result = QueryExecutor(cluster).execute(plan)
        expected = [(i % 10, (i % 10) * 2, i % 10, i) for i in range(40)]
        assert sorted(result.rows) == sorted(expected)

    def test_metrics_populated(self):
        cluster = make_cluster()
        cluster.create_table("t", ["id:Integer"], [(i,) for i in range(20)], "id")
        result = QueryExecutor(cluster).execute(PhysicalPlan(PScan("t")))
        m = result.metrics
        assert m.num_iterations == 1
        assert m.total_seconds() > 0
        assert m.iterations[0].tuples_processed > 0
        assert m.result_rows == 20

    def test_single_node_cluster_works(self):
        cluster = make_cluster(1)
        cluster.create_table("t", ["id:Integer"], [(i,) for i in range(5)], "id")
        result = QueryExecutor(cluster).execute(PhysicalPlan(PScan("t")))
        assert sorted(result.rows) == [(i,) for i in range(5)]


def reachability_plan():
    """Transitive reachability from vertex 0 — a canonical fixpoint query.

    base: start(v) ; recursive: Δ(v) ⋈ edges(src=v) -> (dst) -> rehash -> fp
    """
    vkey = lambda r: (r[0],)
    return PhysicalPlan(PFixpoint(
        key_fn=vkey,
        semantics="set",
        children=(
            PRehash(key_fn=vkey, children=(PScan("start"),)),
            PRehash(key_fn=vkey, children=(
                PProject(row_fn=lambda r: (r[2],), children=(
                    PJoin(left_key=vkey, right_key=vkey, handler_factory=None,
                          handler_side=None,
                          children=(
                              PFeedback(),
                              PScan("edges"),
                          )),
                )),
            )),
        ),
    ))


class TestRecursive:
    def edges(self):
        # Two chains and a cycle; vertices 100+ unreachable.
        return [(0, 1), (1, 2), (2, 3), (3, 1), (0, 10), (10, 11),
                (100, 101), (101, 102)]

    def load(self, cluster):
        cluster.create_table("edges", ["src:Integer", "dst:Integer"],
                             self.edges(), "src")
        cluster.create_table("start", ["v:Integer"], [(0,)], "v")

    def test_reachability_converges_to_correct_set(self):
        cluster = make_cluster(4)
        self.load(cluster)
        result = QueryExecutor(cluster).execute(reachability_plan())
        assert sorted(r[0] for r in result.rows) == [0, 1, 2, 3, 10, 11]

    def test_same_result_on_any_cluster_size(self):
        """Determinism across degrees of parallelism (stratified model)."""
        outputs = []
        for n in (1, 2, 5):
            cluster = make_cluster(n)
            self.load(cluster)
            result = QueryExecutor(cluster).execute(reachability_plan())
            outputs.append(sorted(result.rows))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_iteration_metrics_track_deltas(self):
        cluster = make_cluster(2)
        self.load(cluster)
        result = QueryExecutor(cluster).execute(reachability_plan())
        m = result.metrics
        # Frontier: {0}, {1,10}, {2,11}, {3}, {} (cycle back to 1 is dup)
        assert m.delta_series()[0] == 1
        assert m.delta_series()[-1] == 0
        assert m.num_iterations >= 4

    def test_max_strata_bounds_execution(self):
        cluster = make_cluster(2)
        self.load(cluster)
        opts = ExecOptions(max_strata=2)
        result = QueryExecutor(cluster, opts).execute(reachability_plan())
        assert result.metrics.num_iterations == 2

    def test_explicit_termination_condition(self):
        cluster = make_cluster(2)
        self.load(cluster)
        opts = ExecOptions(termination=lambda stratum, ex: stratum >= 1)
        result = QueryExecutor(cluster, opts).execute(reachability_plan())
        assert result.metrics.num_iterations == 2


class _MonotoneMin(WhileDeltaHandler):
    """Admit (v, dist) only when dist improves — shortest-path refinement."""

    def update(self, rel, delta):
        key = (delta.row[0],)
        cur = rel.get(key)
        if cur is None or delta.row[1] < cur[1]:
            rel[key] = delta.row
            return [insert(delta.row)]
        return []


def sssp_plan():
    vkey = lambda r: (r[0],)
    return PhysicalPlan(PFixpoint(
        key_fn=vkey,
        while_handler_factory=_MonotoneMin,
        children=(
            PRehash(key_fn=vkey, children=(PScan("start"),)),
            PRehash(key_fn=vkey, children=(
                PProject(row_fn=lambda r: (r[3], r[1] + 1), children=(
                    PJoin(left_key=vkey, right_key=vkey, handler_factory=None,
                          handler_side=None,
                          children=(PFeedback(), PScan("edges"))),
                )),
            )),
        ),
    ))


class TestWhileHandlerRecursion:
    def test_sssp_distances(self):
        cluster = make_cluster(3)
        cluster.create_table("edges", ["src:Integer", "dst:Integer"],
                             [(0, 1), (1, 2), (0, 2), (2, 3)], "src")
        cluster.create_table("start", ["v:Integer", "d:Integer"], [(0, 0)], "v")
        result = QueryExecutor(cluster).execute(sssp_plan())
        dists = dict(result.rows)
        assert dists == {0: 0, 1: 1, 2: 1, 3: 2}


class TestPlanValidation:
    def test_two_fixpoints_rejected(self):
        inner = PFixpoint(key_fn=lambda r: (r[0],), children=(
            PScan("t"), PFeedback()))
        with pytest.raises(PlanError):
            PhysicalPlan(PFixpoint(key_fn=lambda r: (r[0],),
                                   children=(inner, PFeedback())))

    def test_feedback_without_fixpoint_rejected(self):
        with pytest.raises(PlanError):
            PhysicalPlan(PFeedback())

    def test_fixpoint_needs_two_children(self):
        with pytest.raises(PlanError):
            PhysicalPlan(PFixpoint(key_fn=lambda r: (r[0],),
                                   children=(PScan("t"),)))

    def test_recursive_branch_needs_feedback(self):
        with pytest.raises(PlanError):
            PhysicalPlan(PFixpoint(key_fn=lambda r: (r[0],),
                                   children=(PScan("t"), PScan("u"))))

    def test_tables_listed(self):
        plan = reachability_plan()
        assert plan.tables() == ["edges", "start"]
        assert plan.is_recursive


class TestHandlerRelease:
    """A query unregisters the network handlers it registered (rehash
    receivers, the collect sink, the checkpoint stream) however it ends,
    so a long-lived session does not accumulate finished operator trees."""

    SSSP = """
        WITH SP (srcId, parent, dist) AS (
          SELECT v, parent, dist FROM start
        ) UNION ALL UNTIL FIXPOINT BY srcId (
          SELECT nbr, ArgMin(parent, distOut).{id, dist}
          FROM ( SELECT SPAgg(nbrId, dist).{nbr, parent, distOut}
                 FROM graph, SP WHERE graph.srcId = SP.srcId
                 GROUP BY srcId) GROUP BY nbr)
    """

    @pytest.mark.parametrize("recovery", ["incremental", "restart"])
    def test_handlers_return_to_baseline(self, recovery):
        from repro.algorithms import MonotoneMinDist, SPAgg, sssp_reference
        from repro.datasets import dbpedia_like
        from repro.rql import RQLSession
        from repro.runtime import FailureSpec
        from repro.udf import udf

        edges = dbpedia_like(120, avg_out_degree=3, seed=5)
        cluster = Cluster(5)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             edges, "srcId", replication=3)
        cluster.create_table(
            "start", ["v:Integer", "parent:Integer", "dist:Double"],
            [(0, -1, 0.0)], "v")
        session = RQLSession(cluster)
        session.register(SPAgg())
        session.register(MonotoneMinDist)

        @udf(in_types=["Integer"], out_types=["Integer"])
        def explode(v):
            raise ValueError("boom")

        session.register(explode)
        # A key owned by the last worker: earlier workers have already
        # shipped their rehash batches when the UDF raises on it.
        late_key = next(s for s, _ in edges
                        if cluster.ring.primary(s) == max(cluster.node_ids()))

        @udf(in_types=["Integer"], out_types=["Integer"])
        def explode_late(v):
            if v == late_key:
                raise ValueError("late boom")
            return v

        session.register(explode_late)
        handlers = cluster.network._handlers
        baseline = len(handlers)
        for query in ("SELECT srcId, count(*) FROM graph GROUP BY srcId",
                      "SELECT srcId, destId FROM graph WHERE destId > 3",
                      "SELECT destId, count(*) FROM graph GROUP BY destId",
                      "SELECT count(*) FROM graph"):
            assert session.execute(query).rows
            assert len(handlers) == baseline, query
        with pytest.raises(ValueError, match="boom"):
            session.execute("SELECT explode(srcId) FROM graph")
        assert len(handlers) == baseline
        with pytest.raises(ValueError, match="late boom"):
            session.execute("SELECT destId, count(*) FROM graph "
                            "WHERE explode_late(srcId) >= 0 GROUP BY destId")
        assert len(handlers) == baseline
        assert cluster.network.pending() == 0
        assert session.execute(
            "SELECT destId, count(*) FROM graph GROUP BY destId").rows
        assert len(handlers) == baseline
        options = ExecOptions(failure=FailureSpec(after_stratum=1),
                              recovery=recovery)
        result = session.execute(self.SSSP, options,
                                 fixpoint_handler="MonotoneMinDist")
        assert ({r[0]: r[2] for r in result.rows}
                == {v: float(d) for v, d in sssp_reference(edges, 0).items()})
        assert len(handlers) == baseline
        assert session.execute("SELECT count(*) FROM graph").rows
        assert len(handlers) == baseline


class TestPlanRunsAsChosen:
    def test_execute_infers_no_lineage(self):
        """The executor runs the optimizer's plan (plus fusion): no
        column-lineage inference or callable-effect extraction happens at
        execution time."""
        from repro.analysis.effects import extract_effects
        from repro.analysis.lineage import infer_lineage
        from repro.datasets import lineitem
        from repro.datasets.tpch import LINEITEM_SCHEMA
        from repro.optimizer.physical import lower
        from repro.rql import RQLSession

        cluster = make_cluster()
        cluster.create_table("lineitem", LINEITEM_SCHEMA,
                             lineitem(200, seed=1),
                             partition_key="orderkey")
        plan = lower(RQLSession(cluster).logical_plan(
            "SELECT linenumber, sum(tax) FROM lineitem "
            "WHERE quantity > 10 GROUP BY linenumber"))
        watched = {infer_lineage.__code__: "infer_lineage",
                   extract_effects.__code__: "extract_effects"}
        calls = {}

        def profile(frame, event, arg):
            name = watched.get(frame.f_code) if event == "call" else None
            if name is not None:
                calls[name] = calls.get(name, 0) + 1

        sys.setprofile(profile)
        try:
            result = QueryExecutor(cluster).execute(plan)
        finally:
            sys.setprofile(None)
        assert result.rows
        assert calls == {}
