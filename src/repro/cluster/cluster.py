"""The simulated shared-nothing cluster: workers, ring, catalog, network.

A :class:`Cluster` is the substrate every platform in this repo runs on —
REX itself (:mod:`repro.runtime`), the Hadoop/HaLoop simulator
(:mod:`repro.hadoop`), and recovery experiments.  Workers execute real
operator logic over real tuples; the cluster charges resource time through
the shared :class:`~repro.cluster.costs.CostModel` and converts each
stratum's per-node resource vectors into simulated wall time.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.cluster.costs import CostModel, ResourceUsage


def _tally_total(tally: Dict[float, int]) -> float:
    """Exact, order-independent total of a {seconds: count} tally.

    Charges are accumulated as value -> count instead of a running float
    sum, then combined here with ``math.fsum`` over a sorted view.  The
    result depends only on the *multiset* of charges, never on the order
    they arrived — which is what lets batch execution charge the same
    costs as per-tuple execution in a different order and still produce
    bit-identical simulated wall times.
    """
    if not tally:
        return 0.0
    return math.fsum(seconds * count for seconds, count in sorted(tally.items()))
from repro.common.errors import ExecutionError, ReproError
from repro.common.schema import Schema
from repro.net.network import SimulatedNetwork
from repro.storage.hashing import HashRing
from repro.storage.tables import Catalog, PartitionedTable


class Worker:
    """One node: resource accounting plus liveness.

    Operators hold a reference to their worker and charge costs through it.
    ``stratum_usage`` is reset at each stratum boundary so the driver can
    compute per-iteration wall time as the max over workers.
    """

    def __init__(self, node_id: int, cost_model: CostModel):
        self.id = node_id
        self.cost = cost_model
        self.alive = True
        # Per-resource charge tallies ({seconds: count}); the stratum_usage
        # property materializes them order-independently (see _tally_total).
        self._cpu_tally: Dict[float, int] = {}
        self._disk_tally: Dict[float, int] = {}
        self._net_in_tally: Dict[float, int] = {}
        self._net_out_tally: Dict[float, int] = {}
        self._base_usage = ResourceUsage()
        self.total_usage = ResourceUsage()
        self.state_bytes = 0  # operator state held, for spill accounting

    @property
    def stratum_usage(self) -> ResourceUsage:
        """The resource vector consumed so far in the current stratum."""
        base = self._base_usage
        return ResourceUsage(
            base.cpu + _tally_total(self._cpu_tally),
            base.disk + _tally_total(self._disk_tally),
            base.net_in + _tally_total(self._net_in_tally),
            base.net_out + _tally_total(self._net_out_tally),
        )

    @stratum_usage.setter
    def stratum_usage(self, usage: ResourceUsage) -> None:
        self._base_usage = usage
        self._cpu_tally.clear()
        self._disk_tally.clear()
        self._net_in_tally.clear()
        self._net_out_tally.clear()

    # -- charging -------------------------------------------------------
    # Every charge_* method returns the total seconds it charged.  The
    # simulation ignores the return value; the observability layer
    # (repro.obs.context) wraps these methods to attribute charged time to
    # the operator whose frame is active.
    def charge_cpu(self, seconds: float, n: int = 1) -> float:
        """Charge ``n`` identical CPU costs of ``seconds`` each."""
        seconds /= self.cost.cpu_factor(self.id)
        tally = self._cpu_tally
        tally[seconds] = tally.get(seconds, 0) + n
        return seconds * n

    def charge_tuples(self, n: int, per_tuple: Optional[float] = None) -> float:
        cost = self.cost.cpu_tuple_cost if per_tuple is None else per_tuple
        seconds = cost / self.cost.cpu_factor(self.id)
        tally = self._cpu_tally
        tally[seconds] = tally.get(seconds, 0) + n
        return seconds * n

    def charge_disk_bytes(self, nbytes: int) -> float:
        seconds = nbytes / self.cost.disk_bandwidth
        tally = self._disk_tally
        tally[seconds] = tally.get(seconds, 0) + 1
        return seconds

    def charge_disk_seek(self, count: int = 1) -> float:
        tally = self._disk_tally
        seconds = self.cost.disk_seek
        tally[seconds] = tally.get(seconds, 0) + count
        return seconds * count

    def charge_net_out(self, nbytes: int, messages: int = 1) -> float:
        seconds = (nbytes / self.cost.net_bandwidth
                   + messages * self.cost.net_latency)
        tally = self._net_out_tally
        tally[seconds] = tally.get(seconds, 0) + 1
        return seconds

    def charge_net_in(self, nbytes: int) -> float:
        seconds = nbytes / self.cost.net_bandwidth
        tally = self._net_in_tally
        tally[seconds] = tally.get(seconds, 0) + 1
        return seconds

    def charge_net_out_fanout(self, nbytes: int, count: int) -> float:
        """Charge ``count`` identical single-message net-out costs of
        ``nbytes`` each in one tally update.  The tally is a charge
        *multiset*, so this is exactly ``count`` calls to
        :meth:`charge_net_out` — the fast punctuation fanout uses it to
        collapse a broadcast's bookkeeping without moving a bit of
        simulated time."""
        seconds = nbytes / self.cost.net_bandwidth + self.cost.net_latency
        tally = self._net_out_tally
        tally[seconds] = tally.get(seconds, 0) + count
        return seconds * count

    def add_state_bytes(self, nbytes: int) -> None:
        """Track operator state growth; beyond the memory budget, the
        overflow is written out (the engine "spills overflow state to
        local disks as necessary", Section 4)."""
        self.state_bytes += nbytes
        if self.state_bytes > self.cost.worker_memory_bytes:
            self.charge_disk_bytes(max(0, nbytes))

    def spilled_fraction(self) -> float:
        """Fraction of operator state currently resident on disk."""
        if self.state_bytes <= self.cost.worker_memory_bytes:
            return 0.0
        return 1.0 - self.cost.worker_memory_bytes / self.state_bytes

    def charge_state_access(self, nbytes: int = 64) -> float:
        """Probe/lookup against operator state: free in memory, disk time
        proportional to the spilled fraction otherwise ("repeatedly scan
        or probe against disk-based storage", Section 4)."""
        fraction = self.spilled_fraction()
        if fraction > 0.0:
            seconds = fraction * (nbytes / self.cost.disk_bandwidth
                                  + self.cost.disk_seek / 256.0)
            tally = self._disk_tally
            tally[seconds] = tally.get(seconds, 0) + 1
            return seconds
        return 0.0

    def end_stratum(self) -> ResourceUsage:
        """Roll the stratum usage into totals and return it."""
        usage = self.stratum_usage  # materializes the charge tallies
        self.total_usage.add(usage)
        self.stratum_usage = ResourceUsage()
        return usage

    def __repr__(self):
        status = "up" if self.alive else "DOWN"
        return f"Worker({self.id}, {status})"


class Cluster:
    """A set of workers joined by a consistent-hash ring and a network."""

    def __init__(self, num_nodes: int, cost_model: Optional[CostModel] = None,
                 virtual_nodes: int = 64):
        if num_nodes < 1:
            raise ReproError("cluster needs at least one node")
        self.cost = cost_model or CostModel()
        self.workers: Dict[int, Worker] = {
            n: Worker(n, self.cost) for n in range(num_nodes)
        }
        self.ring = HashRing(list(self.workers), virtual_nodes=virtual_nodes)
        self.catalog = Catalog()
        self.network = SimulatedNetwork(on_bytes=self._charge_link,
                                        on_bytes_fanout=self._charge_link_fanout)

    # -- topology ---------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.workers)

    def node_ids(self) -> List[int]:
        return sorted(self.workers)

    def alive_workers(self) -> List[Worker]:
        return [w for _, w in sorted(self.workers.items()) if w.alive]

    def worker(self, node_id: int) -> Worker:
        return self.workers[node_id]

    def fail_node(self, node_id: int) -> None:
        """Inject a crash failure: the node stops sending, receiving and
        being charged; its ranges will be recovered from replicas."""
        worker = self.workers[node_id]
        if not worker.alive:
            raise ExecutionError(f"node {node_id} is already down")
        worker.alive = False
        self.network.unregister_node(node_id)

    # -- data ---------------------------------------------------------------
    def create_table(self, name: str,
                     schema: Union[Schema, Sequence[str]],
                     rows: Iterable[Sequence[Any]],
                     partition_key: Optional[str] = None,
                     replication: int = 1) -> PartitionedTable:
        """Create, load, and register a partitioned table.

        ``replication`` applies only to keyed tables.  A table with
        ``partition_key=None`` round-robins each row onto one node, so it
        is unreplicated: losing a node that holds its rows raises
        :class:`~repro.common.errors.RecoveryError` in either recovery mode.
        """
        if not isinstance(schema, Schema):
            schema = Schema.of(*schema)
        table = PartitionedTable(name, schema, partition_key,
                                 replication=replication)
        table.load(rows, self.ring)
        return self.catalog.register(table)

    # -- accounting -----------------------------------------------------------
    def _charge_link(self, src: int, dst: int, nbytes: int) -> None:
        sender = self.workers.get(src)
        receiver = self.workers.get(dst)
        if sender is not None and sender.alive:
            sender.charge_net_out(nbytes)
        if receiver is not None and receiver.alive:
            receiver.charge_net_in(nbytes)

    def _charge_link_fanout(self, src: int, dsts: List[int],
                            nbytes: int) -> None:
        """Bulk form of :meth:`_charge_link` for ``len(dsts)`` equal-size
        sends from one node: per-endpoint charge multisets are identical
        to charging each link individually."""
        workers = self.workers
        for dst in dsts:
            receiver = workers.get(dst)
            if receiver is not None and receiver.alive:
                receiver.charge_net_in(nbytes)
        sender = workers.get(src)
        if sender is not None and sender.alive and dsts:
            sender.charge_net_out_fanout(nbytes, len(dsts))

    def end_stratum_wall_time(self, per_node: Optional[Dict[int, float]]
                              = None) -> float:
        """Close the current stratum on every live worker and return its
        simulated wall time: the slowest node's overlap-combined resource
        vector (execution is barrier-synchronised between strata).

        With ``per_node`` given (a dict), each live node's own combined
        time is recorded into it — the skew view the telemetry sampler
        publishes as ``telemetry.node.n<K>.stratum_seconds``."""
        best = 0.0
        for w in self.workers.values():
            if not w.alive:
                continue
            t = w.end_stratum().combined_time(self.cost.overlap)
            if per_node is not None:
                per_node[w.id] = t
            if t > best:
                best = t
        return best

    def reset_usage(self) -> None:
        for w in self.workers.values():
            w.stratum_usage = ResourceUsage()
            w.total_usage = ResourceUsage()
            w.state_bytes = 0
