"""Failure injection and recovery (Section 4.3, Figure 12 machinery).

The correctness bar: a query that loses a node mid-recursion must still
produce exactly the result of a failure-free run (on shortest-path — the
monotone algorithm class the paper's recovery experiment uses).
"""

import pytest

from repro.algorithms import (
    MonotoneMinDist,
    SPAgg,
    make_start_table,
    run_sssp,
    sssp_reference,
)
from repro.cluster import Cluster
from repro.common.errors import RecoveryError
from repro.datasets import dbpedia_like
from repro.rql import RQLSession
from repro.runtime import ExecOptions, FailureSpec
from tests.test_rql_e2e import SSSP_RQL


def sssp_cluster(edges, n=5, replication=3, partition_key="srcId"):
    cluster = Cluster(n)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         edges, partition_key, replication=replication)
    make_start_table(cluster, 0)
    return cluster


EDGES = dbpedia_like(250, avg_out_degree=4, seed=17)
EXPECTED = sssp_reference(EDGES, 0)


def listing2_session(partition_key):
    session = RQLSession(sssp_cluster(EDGES, partition_key=partition_key))
    session.register(SPAgg())
    session.register(MonotoneMinDist)
    return session


class TestIncrementalRecovery:
    @pytest.mark.parametrize("fail_at", [1, 2, 4])
    def test_result_correct_after_failure(self, fail_at):
        cluster = sssp_cluster(EDGES)
        opts = ExecOptions(failure=FailureSpec(after_stratum=fail_at),
                           recovery="incremental")
        got, metrics = run_sssp(cluster, options=opts)
        assert {v: d for v, (_, d) in got.items()} == EXPECTED
        assert metrics.recovery_seconds > 0

    def test_specific_node_failure(self):
        cluster = sssp_cluster(EDGES)
        opts = ExecOptions(failure=FailureSpec(after_stratum=2, node=3),
                           recovery="incremental")
        got, _ = run_sssp(cluster, options=opts)
        assert {v: d for v, (_, d) in got.items()} == EXPECTED
        assert not cluster.workers[3].alive

    def test_recovery_slower_than_no_failure(self):
        clean = sssp_cluster(EDGES)
        _, clean_m = run_sssp(clean)
        failed = sssp_cluster(EDGES)
        opts = ExecOptions(failure=FailureSpec(after_stratum=2),
                           recovery="incremental")
        _, failed_m = run_sssp(failed, options=opts)
        assert failed_m.total_seconds() > clean_m.total_seconds()

    def test_requires_checkpointing(self):
        cluster = sssp_cluster(EDGES)
        opts = ExecOptions(failure=FailureSpec(after_stratum=2),
                           recovery="incremental", checkpointing=False)
        with pytest.raises(RecoveryError):
            run_sssp(cluster, options=opts)


class TestRestartRecovery:
    @pytest.mark.parametrize("fail_at", [1, 3])
    def test_result_correct_after_restart(self, fail_at):
        cluster = sssp_cluster(EDGES)
        opts = ExecOptions(failure=FailureSpec(after_stratum=fail_at),
                           recovery="restart")
        got, metrics = run_sssp(cluster, options=opts)
        assert {v: d for v, (_, d) in got.items()} == EXPECTED
        assert metrics.recovery_seconds > 0

    def test_restart_discards_more_work_for_late_failures(self):
        """The restart penalty grows with the failure iteration; the
        incremental penalty stays roughly flat (Figure 12's shape)."""
        def total_with(strategy, fail_at):
            cluster = sssp_cluster(EDGES)
            opts = ExecOptions(failure=FailureSpec(after_stratum=fail_at),
                               recovery=strategy)
            _, m = run_sssp(cluster, options=opts)
            return m.total_seconds()

        assert total_with("restart", 4) > total_with("restart", 1)

    def test_restart_beats_incremental_never(self):
        for fail_at in (1, 3):
            restart = None
            incremental = None
            cluster = sssp_cluster(EDGES)
            opts = ExecOptions(failure=FailureSpec(after_stratum=fail_at),
                               recovery="restart")
            _, m = run_sssp(cluster, options=opts)
            restart = m.total_seconds()
            cluster = sssp_cluster(EDGES)
            opts = ExecOptions(failure=FailureSpec(after_stratum=fail_at),
                               recovery="incremental")
            _, m = run_sssp(cluster, options=opts)
            incremental = m.total_seconds()
            assert incremental < restart


class TestReplicationInteraction:
    def test_unreplicated_table_fails_loudly(self):
        cluster = sssp_cluster(EDGES, replication=1)
        opts = ExecOptions(failure=FailureSpec(after_stratum=2),
                           recovery="incremental")
        with pytest.raises(RecoveryError):
            run_sssp(cluster, options=opts)

    @pytest.mark.parametrize("recovery", ["incremental", "restart"])
    def test_keyless_table_counts_as_unreplicated(self, recovery):
        """Round-robin rows live on one node whatever ``replication``
        says: losing that node must raise, not return a wrong answer."""
        opts = ExecOptions(failure=FailureSpec(after_stratum=2, node=3),
                           recovery=recovery)
        keyless = listing2_session(partition_key=None)
        with pytest.raises(RecoveryError, match="table graph"):
            keyless.execute(SSSP_RQL, fixpoint_handler="MonotoneMinDist",
                            options=opts)
        keyed = listing2_session(partition_key="srcId")
        result = keyed.execute(SSSP_RQL, fixpoint_handler="MonotoneMinDist",
                               options=opts)
        assert {r[0]: r[2] for r in result.rows} == EXPECTED

    def test_checkpoint_traffic_counted(self):
        """Δ-set replication shows up as network bytes (Figure 11 includes
        it); disabling checkpointing reduces traffic."""
        with_ckpt = sssp_cluster(EDGES)
        _, m1 = run_sssp(with_ckpt)
        without = sssp_cluster(EDGES)
        _, m2 = run_sssp(without, options=ExecOptions(checkpointing=False))
        assert m1.total_bytes() > m2.total_bytes()
        # Results identical either way.


class TestRepeatedFailures:
    """Section 4.3: "the incremental strategy would allow forward progress
    even in the case of repeated failures"."""

    def test_two_failures_still_exact(self):
        cluster = sssp_cluster(EDGES, n=6)
        opts = ExecOptions(failure=[FailureSpec(after_stratum=2),
                                    FailureSpec(after_stratum=5)],
                           recovery="incremental")
        got, metrics = run_sssp(cluster, options=opts)
        assert {v: d for v, (_, d) in got.items()} == EXPECTED
        assert sum(1 for w in cluster.workers.values() if not w.alive) == 2

    def test_three_failures_still_exact_with_rf4(self):
        cluster = sssp_cluster(EDGES, n=8, replication=4)
        opts = ExecOptions(failure=[FailureSpec(after_stratum=1),
                                    FailureSpec(after_stratum=3),
                                    FailureSpec(after_stratum=6)],
                           recovery="incremental",
                           checkpoint_replication=4)
        got, _ = run_sssp(cluster, options=opts)
        assert {v: d for v, (_, d) in got.items()} == EXPECTED

    def test_losing_every_replica_fails_loudly(self):
        """Killing all three replicas of a key range is data loss; the
        engine must refuse to return silently wrong results."""
        cluster = sssp_cluster(EDGES, n=8)
        snap = cluster.ring.snapshot()
        # Pick a key owned by three distinct nodes and kill exactly those.
        victims = snap.original_replicas(0, 3)
        opts = ExecOptions(
            failure=[FailureSpec(after_stratum=2 + i, node=n)
                     for i, n in enumerate(victims)],
            recovery="incremental")
        with pytest.raises(RecoveryError):
            run_sssp(cluster, options=opts)

    def test_simultaneous_failures_same_stratum(self):
        cluster = sssp_cluster(EDGES, n=6)
        opts = ExecOptions(failure=[FailureSpec(after_stratum=2),
                                    FailureSpec(after_stratum=2)],
                           recovery="incremental")
        got, _ = run_sssp(cluster, options=opts)
        assert {v: d for v, (_, d) in got.items()} == EXPECTED

    def test_repeated_failures_cost_more_each_time(self):
        def total(n_failures):
            cluster = sssp_cluster(EDGES, n=8)
            specs = [FailureSpec(after_stratum=1 + 2 * i)
                     for i in range(n_failures)]
            opts = ExecOptions(failure=specs, recovery="incremental")
            _, m = run_sssp(cluster, options=opts)
            return m.total_seconds()

        assert total(0) < total(1) < total(2)
