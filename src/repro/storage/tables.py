"""Partitioned, replicated local storage.

Section 4: "The input data resides on partitioned replicated local storage."
A :class:`PartitionedTable` hash-partitions its rows over the cluster's ring
by a key column, keeping each partition on its primary node and mirroring it
to ``replication - 1`` replica nodes.  Table scans read the local primary
partition; after a node failure, the replicas holding its ranges serve the
data (Section 4.1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.common.deltas import Delta, DeltaOp, Row
from repro.common.errors import RecoveryError, ReproError, SchemaError
from repro.common.schema import Schema
from repro.common.sizes import row_bytes
from repro.storage.hashing import HashRing, RingSnapshot


class Partition:
    """Rows of one table held by one node, with byte accounting."""

    __slots__ = ("rows", "bytes", "_inserts")

    def __init__(self):
        self.rows: List[Row] = []
        self.bytes = 0
        self._inserts: Optional[List[Delta]] = None

    def append(self, row: Row) -> None:
        self.rows.append(row)
        self.bytes += row_bytes(row)
        self._inserts = None

    def insert_deltas(self) -> List[Delta]:
        """One ``+()`` delta per row, built on first use and then shared by
        every scan of this partition.

        Rows are tuples and deltas are frozen, so scans may hand the same
        delta objects to every query; callers must not mutate the list.
        """
        inserts = self._inserts
        if inserts is None:
            insert = DeltaOp.INSERT
            inserts = self._inserts = [Delta(insert, row)
                                       for row in self.rows]
        return inserts

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class PartitionedTable:
    """A named relation hash-partitioned by one column across nodes."""

    def __init__(self, name: str, schema: Schema, partition_key: Optional[str],
                 replication: int = 1):
        if partition_key is not None and not schema.has(partition_key):
            raise SchemaError(
                f"partition key {partition_key!r} not in schema of {name}"
            )
        self.name = name
        self.schema = schema
        self.partition_key = partition_key
        self.replication = max(1, replication)
        self._key_index = (
            schema.index_of(partition_key) if partition_key is not None else None
        )
        # node id -> primary partition; node id -> replica partition
        self.primaries: Dict[int, Partition] = {}
        self.replicas: Dict[int, Partition] = {}
        self._loaded = False

    def load(self, rows: Iterable[Sequence[Any]], ring: HashRing) -> None:
        """Distribute ``rows`` across the ring (primary + replicas).

        Rows without a partition key round-robin across nodes, one copy
        each: ``replication`` applies to keyed tables only.
        """
        if self._loaded:
            raise ReproError(f"table {self.name} already loaded")
        nodes = ring.nodes
        for node in nodes:
            self.primaries[node] = Partition()
            self.replicas[node] = Partition()
        rr = 0
        for raw in rows:
            row = tuple(raw)
            if self._key_index is not None:
                owners = ring.replicas(row[self._key_index], self.replication)
            else:
                owners = [nodes[rr % len(nodes)]]
                rr += 1
            self.primaries[owners[0]].append(row)
            for replica_node in owners[1:]:
                self.replicas[replica_node].append(row)
        self._loaded = True

    def partition(self, node: int) -> Partition:
        """The primary partition stored on ``node`` (empty if none)."""
        return self.primaries.get(node) or Partition()

    def replica_partition(self, node: int) -> Partition:
        return self.replicas.get(node) or Partition()

    def check_recoverable(self, failed_node: int) -> None:
        """Raise :class:`RecoveryError` if ``failed_node`` held primary rows
        that no replica holds.

        A keyless table counts as unreplicated whatever its
        ``replication``: :meth:`load` places each round-robin row on one
        node only.
        """
        lost = self.primaries.get(failed_node)
        if lost and (self.replication < 2 or self._key_index is None):
            raise RecoveryError(
                f"table {self.name} has no replicas; data on node "
                f"{failed_node} is unrecoverable"
            )

    def rows_for_recovery(self, failed_node: int, snapshot: RingSnapshot) -> Dict[int, List[Row]]:
        """Re-route the failed node's primary rows to live takeover nodes.

        Returns a map of takeover node -> rows it must now serve.  Raises
        :class:`RecoveryError` if the rows have no replicas (data lost).
        """
        self.check_recoverable(failed_node)
        out: Dict[int, List[Row]] = {}
        for row in self.primaries.get(failed_node) or ():
            takeover = snapshot.replicas(row[self._key_index], 1)[0]
            out.setdefault(takeover, []).append(row)
        return out

    def all_rows(self) -> List[Row]:
        """Every row in the table (primary copies only), in node order."""
        rows: List[Row] = []
        for node in sorted(self.primaries):
            rows.extend(self.primaries[node].rows)
        return rows

    def total_rows(self) -> int:
        return sum(len(p) for p in self.primaries.values())

    def total_bytes(self) -> int:
        return sum(p.bytes for p in self.primaries.values())

    def __repr__(self):
        return (f"PartitionedTable({self.name}, key={self.partition_key}, "
                f"rows={self.total_rows()}, nodes={len(self.primaries)})")


class Catalog:
    """Name -> table registry shared by the planner and the executor."""

    def __init__(self):
        self._tables: Dict[str, PartitionedTable] = {}

    def register(self, table: PartitionedTable) -> PartitionedTable:
        if table.name in self._tables:
            raise ReproError(f"table {table.name!r} already registered")
        self._tables[table.name] = table
        return table

    def get(self, name: str) -> PartitionedTable:
        try:
            return self._tables[name]
        except KeyError:
            raise ReproError(f"unknown table: {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._tables

    def drop(self, name: str) -> None:
        self._tables.pop(name, None)

    def names(self) -> List[str]:
        return sorted(self._tables)
