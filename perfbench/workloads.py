"""Seeded inputs, queries and oracles for the three benchmark workloads.

Every workload is built from ``--seed`` alone, and the engine only ever
sees the generated rows and the RQL text.  Each workload answers three
questions for the harness in ``run.py``:

* ``setup()`` — generate the data and build a fresh cluster, its tables
  and a session (this is what ``setup_s`` times);
* ``queries`` — the RQL texts the closed loop sends, in order;
* ``check(i, result)`` — compare the result of ``queries[i]`` against an
  oracle that never touches the engine; returns an error text or None.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.datasets as datasets
from repro import Cluster, ExecOptions, RQLSession
from repro.algorithms import (
    MonotoneMinDist,
    PRAgg,
    SPAgg,
    pagerank_networkx,
    sssp_reference,
)
from repro.datasets.tpch import LINEITEM_SCHEMA

NODES = 8
"""Simulated cluster size for every workload."""

GRAPH_SCHEMA = ["srcId:Integer", "destId:Integer"]

PAGERANK_VERTICES = 4000
PAGERANK_DEGREE = 12
PAGERANK_TOL = 0.01
DAMPING = 0.85

SSSP_VERTICES = 10000
SSSP_DEGREE = 6
SSSP_SOURCE = 0
SSSP_TAIL = 69
"""Length of the reachability chain ``dbpedia_like`` hangs off a graph of
this size.  A seed whose repair edges short-cut the chain is redrawn, so
every ``sssp`` input keeps the paper's long tail of small strata."""

ADHOC_LINEITEM_ROWS = 1000
ADHOC_GRAPH_VERTICES = 150
ADHOC_GRAPH_DEGREE = 6
ADHOC_PER_SHAPE = 8
"""Distinct literal draws per ad hoc query shape; the closed loop cycles
over all of them, so each query repeats and its fingerprint can be
compared across repeats."""

MAX_STRATA = ExecOptions().max_strata

PAGERANK_RQL = """
    WITH PR (srcId, pr) AS
    ( SELECT srcId, 1.0 AS pr FROM graph
    ) UNION UNTIL FIXPOINT BY srcId (
      SELECT nbr, 0.15 + 0.85 * sum(prDiff)
      FROM ( SELECT PRAgg(srcId, pr).{nbr, prDiff}
             FROM graph, PR
             WHERE graph.srcId = PR.srcId GROUP BY srcId)
      GROUP BY nbr)
"""

SSSP_RQL = """
    WITH SP (srcId, parent, dist) AS (
      SELECT v, parent, dist FROM start
    ) UNION ALL UNTIL FIXPOINT BY srcId (
      SELECT nbr, ArgMin(parent, distOut).{id, dist}
      FROM ( SELECT SPAgg(nbrId, dist).{nbr, parent, distOut}
             FROM graph, SP WHERE graph.srcId = SP.srcId
             GROUP BY srcId) GROUP BY nbr)
"""


class Query:
    """One RQL text plus how to run it on a session."""

    def __init__(self, text: str, fixpoint_handler: Optional[str] = None):
        self.text = text
        self.fixpoint_handler = fixpoint_handler

    def run(self, session: RQLSession):
        return session.execute(self.text,
                               fixpoint_handler=self.fixpoint_handler)


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _rows_match(got: Sequence[tuple], want: Sequence[tuple]) -> bool:
    """Multiset equality with float tolerance (rows sorted as tuples)."""
    if len(got) != len(want):
        return False
    for g, w in zip(sorted(got), sorted(want)):
        if len(g) != len(w) or not all(map(_close, g, w)):
            return False
    return True


def _recursion_error(result) -> Optional[str]:
    strata = result.metrics.num_iterations
    if strata >= MAX_STRATA:
        return f"stopped at max_strata ({strata} strata)"
    return None


class PageRank:
    """Listing 1 through ``RQLSession.execute``."""

    name = "pagerank"

    def __init__(self, seed: int):
        self.graph_seed = seed
        self.queries = [Query(PAGERANK_RQL)]
        edges = self.generate()
        self.expected = pagerank_networkx(edges, damping=DAMPING)
        # Changes below tol (relative) are not propagated; damped over the
        # recurrence, the stored score can drift from the exact fixpoint
        # by at most tol * (1 + d + d^2 + ...) = tol / (1 - d), relative.
        self.rel_bound = PAGERANK_TOL / (1.0 - DAMPING)

    def generate(self):
        return datasets.dbpedia_like(n_vertices=PAGERANK_VERTICES,
                                     avg_out_degree=PAGERANK_DEGREE,
                                     seed=self.graph_seed)

    def setup(self) -> RQLSession:
        cluster = Cluster(NODES)
        cluster.create_table("graph", GRAPH_SCHEMA, self.generate(),
                             partition_key="srcId", replication=2)
        session = RQLSession(cluster)
        session.register(PRAgg(tol=PAGERANK_TOL))
        return session

    def check(self, i: int, result) -> Optional[str]:
        error = _recursion_error(result)
        if error:
            return error
        scores = dict(result.rows)
        if scores.keys() != self.expected.keys():
            return (f"{len(scores)} pages scored, "
                    f"{len(self.expected)} expected")
        worst = max(abs(scores[v] - want) / want
                    for v, want in self.expected.items())
        if worst > self.rel_bound:
            return (f"relative error {worst:.4f} vs networkx exceeds "
                    f"{self.rel_bound:.4f}")
        return None


class ShortestPath:
    """Listing 2 through ``RQLSession.execute`` with ``MonotoneMinDist``."""

    name = "sssp"

    def __init__(self, seed: int):
        self.queries = [Query(SSSP_RQL, fixpoint_handler="MonotoneMinDist")]
        # Deterministic redraw: candidate k of seed s is s + 1000003 * k.
        for k in range(100):
            self.graph_seed = seed + 1000003 * k
            edges = self.generate()
            expected = sssp_reference(edges, SSSP_SOURCE)
            if max(expected.values()) >= SSSP_TAIL:
                break
        self.expected = {v: float(d) for v, d in expected.items()}

    def generate(self):
        return datasets.dbpedia_like(n_vertices=SSSP_VERTICES,
                                     avg_out_degree=SSSP_DEGREE,
                                     seed=self.graph_seed)

    def setup(self) -> RQLSession:
        cluster = Cluster(NODES)
        cluster.create_table("graph", GRAPH_SCHEMA, self.generate(),
                             partition_key="srcId", replication=2)
        cluster.create_table("start",
                             ["v:Integer", "parent:Integer", "dist:Double"],
                             [(SSSP_SOURCE, -1, 0.0)], partition_key="v",
                             replication=3)
        session = RQLSession(cluster)
        session.register(SPAgg())
        session.register(MonotoneMinDist)
        return session

    def check(self, i: int, result) -> Optional[str]:
        error = _recursion_error(result)
        if error:
            return error
        dist = {row[0]: row[2] for row in result.rows}
        if dist != self.expected:
            wrong = sum(1 for v in self.expected.keys() | dist.keys()
                        if dist.get(v) != self.expected.get(v))
            return f"{wrong} vertex distances differ from BFS"
        return None


# -- ad hoc ---------------------------------------------------------------
# Each shape draws its literals from the seeded rng and returns the RQL
# text plus an oracle over the generated rows.  Literal ranges keep every
# filter non-empty, so every global aggregate has input.  Draw k of a shape
# takes each literal from the k-th of ADHOC_PER_SHAPE equal slices of its
# range (stratified sampling): the literals change with the seed, but every
# seed covers the whole range, so the stream's total work barely does.

LINEITEM = {name.split(":")[0]: i for i, name in enumerate(LINEITEM_SCHEMA)}
OK, LN, QTY, PRICE, DISC, TAX = (LINEITEM[c] for c in (
    "orderkey", "linenumber", "quantity", "extendedprice", "discount",
    "tax"))

Oracle = Callable[[List[tuple]], Optional[str]]


def _draw(rng, lo: int, hi: int, k: int) -> int:
    """A uniform integer from the k-th slice of ``[lo, hi]``."""
    span = hi - lo + 1
    first = lo + span * k // ADHOC_PER_SHAPE
    last = max(first, lo + span * (k + 1) // ADHOC_PER_SHAPE - 1)
    return rng.randint(first, last)


def _other(k: int) -> int:
    """The slice a shape's second literal uses: decorrelated from ``k``."""
    return (5 * k + 3) % ADHOC_PER_SHAPE


def _exact(want: List[tuple]) -> Oracle:
    return lambda got: None if _rows_match(got, want) else (
        f"rows differ: got {len(got)}, want {len(want)}")


def _shape_sum_tax(rng, k, li, graph):
    n = _draw(rng, 1, 4, k)
    text = f"SELECT sum(tax) FROM lineitem WHERE linenumber = {n}"
    return text, _exact([(sum(r[TAX] for r in li if r[LN] == n),)])


def _shape_filter_aggs(rng, k, li, graph):
    d = _draw(rng, 0, 5, k) / 100
    q = _draw(rng, 20, 50, _other(k))
    text = (f"SELECT count(*), avg(quantity), min(extendedprice) "
            f"FROM lineitem WHERE discount >= {d} AND quantity < {q}")
    hit = [r for r in li if r[DISC] >= d and r[QTY] < q]
    return text, _exact([(len(hit), sum(r[QTY] for r in hit) / len(hit),
                          min(r[PRICE] for r in hit))])


def _shape_grouped(rng, k, li, graph):
    q = _draw(rng, 1, 40, k)
    text = (f"SELECT linenumber, count(*), sum(quantity), "
            f"max(extendedprice) FROM lineitem WHERE quantity > {q} "
            f"GROUP BY linenumber")
    groups: Dict[int, list] = {}
    for r in li:
        if r[QTY] > q:
            groups.setdefault(r[LN], []).append(r)
    return text, _exact([(n, len(rs), sum(r[QTY] for r in rs),
                          max(r[PRICE] for r in rs))
                         for n, rs in groups.items()])


def _shape_grouped_expr(rng, k, li, graph):
    t = _draw(rng, 2, 8, k) / 100
    text = (f"SELECT linenumber, sum(extendedprice * discount) AS rev "
            f"FROM lineitem WHERE tax < {t} GROUP BY linenumber")
    rev: Dict[int, float] = {}
    for r in li:
        if r[TAX] < t:
            rev[r[LN]] = rev.get(r[LN], 0.0) + r[PRICE] * r[DISC]
    return text, _exact(list(rev.items()))


def _shape_expr_rows(rng, k, li, graph):
    q = _draw(rng, 30, 48, k)
    n = _draw(rng, 1, 3, _other(k))
    text = (f"SELECT orderkey, linenumber, "
            f"extendedprice * (1 - discount) * (1 + tax) AS charge "
            f"FROM lineitem WHERE quantity >= {q} AND linenumber <= {n}")
    return text, _exact([
        (r[OK], r[LN], r[PRICE] * (1 - r[DISC]) * (1 + r[TAX]))
        for r in li if r[QTY] >= q and r[LN] <= n])


def _shape_top_degree(rng, k, li, graph):
    x = _draw(rng, 0, ADHOC_GRAPH_VERTICES // 2, k)
    n = _draw(rng, 3, 20, _other(k))
    text = (f"SELECT srcId, count(*) AS deg FROM graph WHERE destId > {x} "
            f"GROUP BY srcId ORDER BY deg DESC LIMIT {n}")
    deg: Dict[int, int] = {}
    for s, d in graph:
        if d > x:
            deg[s] = deg.get(s, 0) + 1
    top = sorted(deg.values(), reverse=True)[:n]

    def oracle(got):
        # Ties at the cut make the chosen sources ambiguous: require the
        # exact degree sequence, and each row's degree to be right.
        if [row[1] for row in got] != top:
            return f"degree sequence {[r[1] for r in got]} != {top}"
        if any(deg.get(s) != c for s, c in got):
            return "a returned source has the wrong degree"
        return None
    return text, oracle


def _shape_graph_count(rng, k, li, graph):
    a = _draw(rng, ADHOC_GRAPH_VERTICES // 4, ADHOC_GRAPH_VERTICES, k)
    b = _draw(rng, 0, ADHOC_GRAPH_VERTICES // 2, _other(k))
    text = (f"SELECT count(*) FROM graph "
            f"WHERE srcId < {a} AND destId >= {b}")
    return text, _exact([(sum(1 for s, d in graph if s < a and d >= b),)])


ADHOC_SHAPES = (_shape_sum_tax, _shape_filter_aggs, _shape_grouped,
                _shape_grouped_expr, _shape_expr_rows, _shape_top_degree,
                _shape_graph_count)


class AdHoc:
    """A seeded stream of non-recursive RQL queries for one session."""

    name = "adhoc"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        lineitem, graph = self.generate()
        drawn: List[Tuple[str, Oracle]] = [
            shape(rng, k, lineitem, graph)
            for shape in ADHOC_SHAPES for k in range(ADHOC_PER_SHAPE)]
        rng.shuffle(drawn)
        self.queries = [Query(text) for text, _ in drawn]
        self.oracles = [oracle for _, oracle in drawn]

    def generate(self):
        return (datasets.lineitem(ADHOC_LINEITEM_ROWS, seed=self.seed),
                datasets.dbpedia_like(n_vertices=ADHOC_GRAPH_VERTICES,
                                      avg_out_degree=ADHOC_GRAPH_DEGREE,
                                      seed=self.seed))

    def setup(self) -> RQLSession:
        lineitem, graph = self.generate()
        cluster = Cluster(NODES)
        cluster.create_table("lineitem", LINEITEM_SCHEMA, lineitem,
                             partition_key="orderkey")
        cluster.create_table("graph", GRAPH_SCHEMA, graph,
                             partition_key="srcId")
        return RQLSession(cluster)

    def check(self, i: int, result) -> Optional[str]:
        return self.oracles[i](result.rows)


WORKLOADS = {w.name: w for w in (PageRank, ShortestPath, AdHoc)}
