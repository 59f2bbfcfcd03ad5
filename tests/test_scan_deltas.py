"""Shared insertion deltas for base-table scans.

Each table partition builds its rows' ``+()`` deltas once, on the first
scan, and every later scan re-emits those same objects.  These tests pin
the three things that must hold for that to be invisible: later scans
allocate nothing, results and simulated metrics match a cold cluster's
in every execution mode, and no consumer mutates the shared lists.
"""

import os
import sys

import pytest

from repro.algorithms import make_start_table, sssp_plan
from repro.cluster import Cluster
from repro.common import Schema
from repro.common.deltas import Delta, DeltaOp
from repro.datasets import dbpedia_like
from repro.operators import TableScan
from repro.rql import RQLSession
from repro.runtime import ExecOptions, FailureSpec, QueryExecutor
from repro.storage import HashRing, PartitionedTable
from repro.storage.tables import Partition

from helpers import Capture, wire

EDGES = dbpedia_like(250, avg_out_degree=4, seed=17)

#: Code objects that allocate on behalf of a scan.
SCAN_CODES = ({f.__code__ for f in vars(TableScan).values()
               if hasattr(f, "__code__")}
              | {Partition.insert_deltas.__code__})


def graph_cluster():
    cluster = Cluster(5)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         EDGES, "srcId", replication=3)
    make_start_table(cluster, 0)
    return cluster


def scan_allocations(run):
    """Run ``run()`` and count the ``Delta.__init__`` calls whose nearest
    non-comprehension caller is scan code."""
    init = Delta.__init__.__code__
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event != "call" or frame.f_code is not init:
            return
        caller = frame.f_back
        # Comprehensions run in their own frame before Python 3.12.
        while caller.f_code.co_name.startswith("<"):
            caller = caller.f_back
        if caller.f_code in SCAN_CODES:
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


class Hoarder(Capture):
    """A consumer that extends the batch it is handed and keeps it."""

    def push_batch(self, deltas, port=0):
        deltas.append(Delta(DeltaOp.INSERT, (-1, -1.0)))
        self.deltas.extend(deltas)


def all_partitions(cluster):
    for name in cluster.catalog.names():
        table = cluster.catalog.get(name)
        yield from table.primaries.values()
        yield from table.replicas.values()


class TestSharedScanDeltas:
    def test_second_query_allocates_no_scan_deltas(self):
        session = RQLSession(graph_cluster())
        query = "SELECT srcId, count(*) FROM graph GROUP BY srcId"
        results = []
        first = scan_allocations(lambda: results.append(
            session.execute(query)))
        second = scan_allocations(lambda: results.append(
            session.execute(query)))
        assert first == len(EDGES)
        assert second == 0
        assert sorted(results[0].rows) == sorted(results[1].rows)

    @pytest.mark.parametrize("options", [
        lambda: ExecOptions(batch=False),
        lambda: ExecOptions(sanitize="full"),
        lambda: ExecOptions(failure=FailureSpec(after_stratum=2, node=3),
                            recovery="incremental"),
        lambda: ExecOptions(failure=FailureSpec(after_stratum=2, node=3),
                            recovery="restart"),
    ], ids=["per-tuple", "sanitize", "incremental", "restart"])
    def test_warm_partitions_match_a_fresh_cluster(self, options):
        def run(cluster):
            result = QueryExecutor(cluster, options()).execute(sssp_plan())
            return sorted(result.rows), result.metrics.fingerprint()

        warm = graph_cluster()
        QueryExecutor(warm, ExecOptions()).execute(sssp_plan())
        assert run(warm) == run(graph_cluster())

    def test_adhoc_mix_leaves_cached_lists_unchanged(self):
        """Consumers may keep or extend the batches a scan hands them, so
        a scan must never pass out the shared list itself."""
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                        "perfbench"))
        try:
            from workloads import AdHoc
        finally:
            sys.path.pop(0)
        workload = AdHoc(seed=1)
        session = workload.setup()
        partitions = list(all_partitions(session.cluster))
        before = [(p.insert_deltas(), list(p.insert_deltas()))
                  for p in partitions]
        for i, query in enumerate(workload.queries):
            assert workload.check(i, query.run(session)) is None
        for p, (cached, snapshot) in zip(partitions, before):
            assert p.insert_deltas() is cached
            assert len(cached) == len(snapshot) == len(p.rows)
            assert all(a is b for a, b in zip(cached, snapshot))
            assert [d.row for d in cached] == p.rows
            assert all(d.op is DeltaOp.INSERT for d in cached)

    def test_consumer_extending_its_batch_leaves_cache_intact(self):
        table = PartitionedTable("t", Schema.of("id:Integer", "v:Double"),
                                 "id")
        table.load([(i, float(i)) for i in range(5)], HashRing([0]))
        scan = TableScan(table)
        sink = Hoarder()
        wire(scan, sink).batch = True
        scan.run_stratum(0)
        assert len(sink.deltas) == 6
        assert [d.row for d in table.partition(0).insert_deltas()] == [
            (i, float(i)) for i in range(5)]
