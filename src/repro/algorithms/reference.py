"""Independent oracle implementations used to verify the delta programs.

Each function computes the *same recurrence* the RQL programs define, using
plain numpy — so the distributed delta-propagating execution can be checked
for exact (or float-tolerance) agreement.  ``pagerank_networkx`` provides a
second, fully independent cross-check on graphs without degree pathologies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

Edge = Tuple[int, int]


def pagerank_reference(edges: Iterable[Edge], damping: float = 0.85,
                       base: float = 0.15, tol: float = 1e-10,
                       max_iter: int = 200) -> Dict[int, float]:
    """Jacobi iteration of Listing 1's recurrence.

    ``PR(v) = base + damping * sum_{u->v} PR(u) / outdeg(u)``, starting from
    PR = 1.0.  (This is the unnormalized variant the paper uses; dividing by
    the vertex count recovers the probability-normalized PageRank up to the
    handling of dangling mass.)  Vertices are all ids appearing as a source
    or destination, so an empty edge list has no scores.
    """
    edges = list(edges)
    if not edges:
        return {}
    vertices = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    out_deg = np.zeros(n)
    for s, _ in edges:
        out_deg[index[s]] += 1
    src = np.array([index[s] for s, _ in edges])
    dst = np.array([index[d] for _, d in edges])
    pr = np.ones(n)
    for _ in range(max_iter):
        contrib = np.zeros(n)
        np.add.at(contrib, dst, pr[src] / out_deg[src])
        new_pr = base + damping * contrib
        # Sources with no in-edges keep their initial value, matching the
        # fixpoint program (no recursive derivation ever reaches them).
        has_in = np.zeros(n, dtype=bool)
        has_in[dst] = True
        new_pr[~has_in] = pr[~has_in]
        if np.max(np.abs(new_pr - pr)) < tol:
            pr = new_pr
            break
        pr = new_pr
    return {v: float(pr[index[v]]) for v in vertices}


def pagerank_networkx(edges: Iterable[Edge], damping: float = 0.85
                      ) -> Dict[int, float]:
    """networkx's PageRank, rescaled to the paper's unnormalized convention.

    Only comparable on graphs where every vertex has in- and out-edges
    (otherwise networkx's dangling-mass redistribution diverges from the
    recurrence above).
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_edges_from(edges)
    scores = nx.pagerank(graph, alpha=damping, tol=1e-12, max_iter=500)
    n = graph.number_of_nodes()
    return {v: s * n for v, s in scores.items()}


def sssp_reference(edges: Iterable[Edge], source: int) -> Dict[int, int]:
    """Unweighted single-source shortest hop counts (BFS)."""
    adj: Dict[int, List[int]] = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def kmeans_reference(points: List[Tuple[int, float, float]],
                     centroids: List[Tuple[int, float, float]],
                     max_iter: int = 100
                     ) -> Tuple[Dict[int, Tuple[float, float]], Dict[int, int], int]:
    """Lloyd's algorithm from the given initial centroids.

    Returns (final centroid positions, point -> centroid assignment, and
    the number of assignment iterations until no point switches).
    """
    xy = np.array([(x, y) for _, x, y in points])
    cent = {cid: np.array([x, y]) for cid, x, y in centroids}
    assign = np.full(len(points), -1)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        ids = sorted(cent)
        matrix = np.array([cent[c] for c in ids])
        d2 = ((xy[:, None, :] - matrix[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.array(ids)[np.argmin(d2, axis=1)]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for cid in ids:
            members = xy[assign == cid]
            if len(members):
                cent[cid] = members.mean(axis=0)
    final = {cid: (float(p[0]), float(p[1])) for cid, p in cent.items()}
    mapping = {points[i][0]: int(assign[i]) for i in range(len(points))}
    return final, mapping, iterations
