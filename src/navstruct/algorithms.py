"""Core graph algorithms with deterministic tie-breaking.

Shortest paths prefer the lexicographically smallest predecessor among
equal-cost alternatives; spanning trees order candidate edges by
(weight, min endpoint, max endpoint).  Both rules make every downstream
structure reproducible bit-for-bit on identical input.  Spectral scores are
exact to rounding: eigenvector centrality and the spectral radius take one
Lanczos solve, Katz centrality one sparse direct solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np
from scipy.sparse import csr_matrix

from .errors import AlphaTooLarge, EmptyGraph, NoConvergence, ValidationError
from .graph import SurfaceGraph

INF = math.inf


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------

def dijkstra_tree(g: SurfaceGraph, sources: list[int]) -> tuple[list[float], list[int]]:
    """Distances to the nearest of `sources` and predecessors: one C Dijkstra
    over the graph's arcs from all sources at once, then each predecessor read
    off the arcs the distances leave tight (dist[u] + w == dist[v]).

    The predecessor of v is the smallest such u that a heap search seeded
    with every source settles before v, as `oracles.dijkstra_tree_heap`
    records it, so recovered paths do not depend on heap internals; -1 marks
    the sources and unreached nodes.  A reached u settles before v when
    dist[u] < dist[v]; the arcs whose weight vanishes in rounding
    (dist[u] == dist[v]) go to `_settle_level_arcs`.
    """
    # imported on the first search, so importing the CLI does not pay for it
    from scipy.sparse.csgraph import dijkstra

    arcs = g.arcs
    dist = dijkstra(arcs.matrix, indices=sources, min_only=True)
    n = len(dist)
    d_tail = dist[arcs.tail]
    d_head = dist[arcs.head]
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as in Python
        tight = d_tail + arcs.weight == d_head
    pred = np.full(n, n, dtype=np.intp)
    earlier = tight & (d_tail < d_head)
    np.minimum.at(pred, arcs.head[earlier], arcs.tail[earlier])
    level = tight & (d_tail == d_head) & (d_tail < INF)
    if level.any():
        _settle_level_arcs(pred, sources, dist, arcs.tail[level], arcs.head[level])
    pred[pred == n] = -1
    pred[sources] = -1  # even where a zero-weight arc joins two sources
    return dist.tolist(), pred.tolist()


def _settle_level_arcs(pred, sources, dist, tail, head) -> None:
    """Lower `pred` along tight arcs between nodes of equal distance.

    Such an arc u -> v counts only when the heap settles u before v.  Among
    equal distances the heap pops the smallest id it holds; a node is held
    once it is a source, or a closer tight neighbour or a settled equal
    neighbour has reached it.  This replays that order on the nodes these
    arcs touch.
    """
    n = len(pred)
    out: dict[int, list[int]] = {}
    for u, v in zip(tail.tolist(), head.tolist()):
        out.setdefault(u, []).append(v)
    held = set(sources)
    heap = [(dist[u], u) for u in out if u in held or pred[u] < n]
    heapify(heap)
    settled = set()
    while heap:
        _d, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v in out[u]:
            if v not in settled:
                pred[v] = min(pred[v], u)
                heappush(heap, (dist[v], v))


# ---------------------------------------------------------------------------
# spanning trees
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


@dataclass
class SpanningForest:
    edges: list[tuple[int, int, float]]
    component_count: int

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


def kruskal_edges(nodes, edges) -> SpanningForest:
    """Kruskal over an arbitrary id set; candidates sorted by
    (weight, min id, max id)."""
    uf = _UnionFind(nodes)
    ranked = sorted(
        ((w, i, j) if i < j else (w, j, i) for i, j, w in edges)
    )
    chosen = []
    for w, i, j in ranked:
        if uf.union(i, j):
            chosen.append((i, j, w))
    components = len({uf.find(x) for x in uf.parent})
    chosen.sort(key=lambda e: (e[0], e[1]))
    return SpanningForest(edges=chosen, component_count=components)


# ---------------------------------------------------------------------------
# centrality
# ---------------------------------------------------------------------------

def degree_centrality(g: SurfaceGraph) -> list[float]:
    """Incident edge count per node (unweighted): the arcs' row lengths."""
    return np.diff(g.arcs.matrix.indptr).astype(float).tolist()


def betweenness_centrality(g: SurfaceGraph, weighted: bool = True) -> list[float]:
    """Exact betweenness: fractional shortest-path credit over unordered
    pairs, unnormalized.

    On a forest (edge count = node count - component count) every path is
    unique, so the scores come in closed form in O(n): a node whose removal
    splits its m-node component into pieces of sizes s_i lies inside
    ((m-1)^2 - sum s_i^2) / 2 paths, whatever the (positive) edge weights.
    The counts are integers, so they equal the Brandes result bit for bit.

    Graphs with a cycle use Brandes' two-phase accumulation (forward
    shortest-path counting by a priority-queue Dijkstra, reverse dependency
    propagation) from every node; `weighted=False` gives every edge weight 1.
    """
    vals = _forest_betweenness(g)
    if vals is not None:
        return vals
    n = len(g.nodes)
    ptr, head = g.arcs.matrix.indptr.tolist(), g.arcs.head.tolist()
    weight = g.arcs.weight.tolist() if weighted else [1.0] * len(head)
    cb = [0.0] * n
    for s in range(n):
        order, preds, sigma = _sssp_dijkstra(ptr, head, weight, s)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                cb[w] += delta[w]
    # undirected: each unordered pair was counted from both endpoints
    return [x / 2.0 for x in cb]


def _forest_betweenness(g: SurfaceGraph) -> list[float] | None:
    """Closed-form betweenness from subtree sizes, or None when the graph has
    a cycle.  One breadth-first pass per component over the rows of
    `g.arcs`; the piece above v has m - size[v] nodes."""
    n = len(g.nodes)
    ptr, head = g.arcs.matrix.indptr.tolist(), g.arcs.head.tolist()
    parent = [-1] * n
    seen = [False] * n
    components = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for u in order:  # grows while it is walked: breadth-first order
            for v in head[ptr[u]:ptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    order.append(v)
        components.append(order)
    if len(g.arcs.tail) // 2 != n - len(components):
        return None
    size = [1] * n
    child_sq = [0] * n  # sum of squared child subtree sizes
    cb = [0.0] * n
    for order in components:
        m = len(order)
        for v in reversed(order):
            s = size[v]
            above = m - s
            cb[v] = float(((m - 1) ** 2 - child_sq[v] - above * above) // 2)
            p = parent[v]
            if p >= 0:
                size[p] += s
                child_sq[p] += s * s
    return cb


def _sssp_dijkstra(ptr, head, weight, s):
    """Brandes' forward phase from `s`: arc k of CSR row u runs to head[k]."""
    n = len(ptr) - 1
    dist = [INF] * n
    sigma = [0.0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    done = [False] * n
    dist[s] = 0.0
    sigma[s] = 1.0
    order = []
    heap = [(0.0, s)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        for k in range(ptr[u], ptr[u + 1]):
            v = head[k]
            if done[v]:
                continue
            nd = d + weight[k]
            if nd < dist[v]:
                dist[v] = nd
                sigma[v] = sigma[u]
                preds[v] = [u]
                heappush(heap, (nd, v))
            elif nd == dist[v]:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return order, preds, sigma


def _sparse_adjacency(g: SurfaceGraph) -> csr_matrix:
    """Unweighted symmetric adjacency in CSR form, O(edges) memory: the
    arcs' pattern with ones."""
    m = g.arcs.matrix
    return csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)


def _top_eigenpair(a: csr_matrix) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of the symmetric `a` and a unit eigenvector for
    it: Lanczos (ARPACK) started from the all-ones vector, or a dense
    eigendecomposition below 3 nodes, where ARPACK has no room for a basis.
    ARPACK's failure to converge raises NoConvergence."""
    n = a.shape[0]
    if n < 3:
        vals, vecs = np.linalg.eigh(a.toarray())
        return float(vals[-1]), vecs[:, -1]
    # imported on the first solve, so importing the CLI does not pay for it
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    try:
        vals, vecs = eigsh(a, k=1, which="LA", v0=np.ones(n))
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"Lanczos eigensolver did not converge: {exc}") from exc
    return float(vals[0]), vecs[:, 0]


def eigenvector_centrality(g: SurfaceGraph) -> list[float]:
    """Principal-eigenvector scores of the unweighted adjacency matrix, by
    Lanczos on a sparse adjacency (O(edges) memory), in absolute value and
    scaled to unit max-norm.  Needs at least one edge.

    A disconnected graph gets the power-iteration limit from the all-ones
    vector: zero on each component whose largest eigenvalue is below the
    graph's, and on components that tie for it, each component's Perron
    vector weighted by its projection onto the ones vector."""
    if not len(g.arcs.tail):
        raise EmptyGraph("eigenvector centrality needs at least one edge")
    vector = np.abs(_top_eigenpair(_sparse_adjacency(g))[1])
    return (vector / vector.max()).tolist()


def spectral_radius(g: SurfaceGraph) -> float:
    """Largest adjacency eigenvalue, by Lanczos on a sparse adjacency
    (O(edges) memory); 0 without edges."""
    return _spectral_radius(_sparse_adjacency(g))


def _spectral_radius(a: csr_matrix) -> float:
    return _top_eigenpair(a)[0] if a.nnz else 0.0


def katz_centrality(g: SurfaceGraph, alpha: float | None = None) -> list[float]:
    """Katz scores: the sum over path lengths i >= 1 of alpha^i * (A^i 1),
    found as the solution x of (I - alpha A) x = alpha A 1 by one sparse
    direct solve.  One sparse adjacency (O(edges) memory) serves the
    spectral radius and the solve.

    `alpha` must satisfy 0 < alpha < 1/spectral_radius, where the series
    converges; None selects 0.9/spectral_radius.  AlphaTooLarge is raised
    otherwise.
    """
    # imported on the first solve, so importing the CLI does not pay for it
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    n = len(g.nodes)
    a = _sparse_adjacency(g)
    radius = _spectral_radius(a)
    if alpha is None:
        alpha = 0.9 / radius if radius > 1e-12 else 0.5
    if not alpha > 0.0:
        raise AlphaTooLarge(f"alpha must be positive, got {alpha}")
    if radius > 1e-12 and alpha * radius >= 1.0 - 1e-12:
        raise AlphaTooLarge(
            f"alpha {alpha:.6g} >= 1/spectral_radius {1.0 / radius:.6g}; series diverges"
        )
    x = spsolve(identity(n, format="csr") - alpha * a, alpha * (a @ np.ones(n)))
    return x.tolist()


CENTRALITY_METRICS = ("degree", "betweenness", "eigenvector", "katz")


def compute_centrality(
    g: SurfaceGraph, metric: str, weighted: bool = True, alpha: float | None = None
) -> list[float]:
    """Scores indexed by node id, by metric name; `weighted` only affects betweenness."""
    if metric == "degree":
        return degree_centrality(g)
    if metric == "betweenness":
        return betweenness_centrality(g, weighted=weighted)
    if metric == "eigenvector":
        return eigenvector_centrality(g)
    if metric == "katz":
        return katz_centrality(g, alpha=alpha)
    raise ValidationError(f"unknown centrality metric {metric!r}")
