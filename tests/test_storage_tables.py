"""Unit tests for partitioned tables and the catalog."""

import pytest

from repro.common import Schema
from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import ReproError, SchemaError
from repro.storage import Catalog, HashRing, PartitionedTable


def make_table(replication=1, key="id"):
    schema = Schema.of("id:Integer", "v:Double")
    return PartitionedTable("t", schema, key, replication=replication)


class TestPartitionedTable:
    def test_partition_key_must_exist(self):
        with pytest.raises(SchemaError):
            PartitionedTable("t", Schema.of("a:Integer"), "nope")

    def test_load_partitions_all_rows(self):
        ring = HashRing(range(4))
        table = make_table()
        rows = [(i, float(i)) for i in range(100)]
        table.load(rows, ring)
        assert table.total_rows() == 100
        assert sorted(table.all_rows()) == sorted(tuple(r) for r in rows)

    def test_rows_land_on_ring_primary(self):
        ring = HashRing(range(4))
        table = make_table()
        table.load([(i, 0.0) for i in range(50)], ring)
        for node in ring.nodes:
            for row in table.partition(node):
                assert ring.primary(row[0]) == node

    def test_double_load_rejected(self):
        ring = HashRing(range(2))
        table = make_table()
        table.load([(1, 1.0)], ring)
        with pytest.raises(ReproError):
            table.load([(2, 2.0)], ring)

    def test_replicas_mirror_rows(self):
        ring = HashRing(range(4))
        table = make_table(replication=3)
        table.load([(i, 0.0) for i in range(60)], ring)
        for node in ring.nodes:
            for row in table.partition(node):
                holders = [n for n in ring.nodes
                           if row in list(table.replica_partition(n))]
                assert len(holders) == 2  # primary + 2 replicas

    def test_round_robin_without_key(self):
        ring = HashRing(range(3))
        table = PartitionedTable("u", Schema.of("x:Integer"), None)
        table.load([(i,) for i in range(9)], ring)
        sizes = sorted(len(table.partition(n)) for n in ring.nodes)
        assert sizes == [3, 3, 3]

    def test_recovery_reroutes_to_live_replicas(self):
        ring = HashRing(range(4))
        table = make_table(replication=2)
        table.load([(i, 0.0) for i in range(80)], ring)
        snap = ring.snapshot()
        victim = max(ring.nodes, key=lambda n: len(table.partition(n)))
        lost_rows = set(table.partition(victim).rows)
        snap.mark_failed(victim)
        moved = table.rows_for_recovery(victim, snap)
        assert victim not in moved
        assert set(r for rows in moved.values() for r in rows) == lost_rows

    def test_recovery_without_replicas_raises(self):
        ring = HashRing(range(3))
        table = make_table(replication=1)
        table.load([(i, 0.0) for i in range(30)], ring)
        snap = ring.snapshot()
        victim = max(ring.nodes, key=lambda n: len(table.partition(n)))
        snap.mark_failed(victim)
        with pytest.raises(ReproError):
            table.rows_for_recovery(victim, snap)

    def test_append_after_scan_invalidates_insert_deltas(self):
        table = make_table()
        table.load([(i, float(i)) for i in range(10)], HashRing(range(2)))
        partition = table.partition(0)
        stale = partition.insert_deltas()
        partition.append((99, 1.0))
        fresh = partition.insert_deltas()
        assert fresh is not stale
        assert [d.row for d in fresh] == partition.rows
        assert fresh[-1] == Delta(DeltaOp.INSERT, (99, 1.0))

    def test_total_bytes_positive(self):
        ring = HashRing(range(2))
        table = make_table()
        table.load([(1, 2.0), (2, 3.0)], ring)
        assert table.total_bytes() > 0


class TestCatalog:
    def test_register_get(self):
        cat = Catalog()
        t = make_table()
        cat.register(t)
        assert cat.get("t") is t
        assert cat.has("t")
        assert cat.names() == ["t"]

    def test_duplicate_register_rejected(self):
        cat = Catalog()
        cat.register(make_table())
        with pytest.raises(ReproError):
            cat.register(make_table())

    def test_unknown_get_raises(self):
        with pytest.raises(ReproError):
            Catalog().get("missing")

    def test_drop(self):
        cat = Catalog()
        cat.register(make_table())
        cat.drop("t")
        assert not cat.has("t")
        cat.drop("t")  # idempotent
