"""Core graph algorithms with deterministic tie-breaking.

Shortest paths prefer the lexicographically smallest predecessor among
equal-cost alternatives; spanning trees order candidate edges by
(weight, min endpoint, max endpoint).  Both rules make every downstream
structure reproducible bit-for-bit on identical input.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .errors import AlphaTooLarge, EmptyGraph, NoConvergence, NoPath, ValidationError
from .graph import SurfaceGraph

INF = math.inf


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------

def dijkstra_tree(g: SurfaceGraph, src: int) -> tuple[list[float], list[int]]:
    """Single-source distances and predecessors: one C Dijkstra over the
    graph's arcs, then each predecessor read off the arcs the distances leave
    tight (dist[u] + w == dist[v]).

    The predecessor of v is the smallest such u that a heap search settles
    before v, as `oracles.dijkstra_tree_heap` records it, so recovered paths
    do not depend on heap internals; -1 marks the source and unreached
    nodes.  A reached u settles before v when dist[u] < dist[v]; the arcs
    whose weight vanishes in rounding (dist[u] == dist[v]) go to
    `_settle_level_arcs`.
    """
    # imported on the first search, so importing the CLI does not pay for it
    from scipy.sparse.csgraph import dijkstra

    arcs = g.arcs()
    dist = dijkstra(arcs.matrix, indices=src)
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
        _settle_level_arcs(pred, src, dist, arcs.tail[level], arcs.head[level])
    return dist.tolist(), arcs.node_ids[pred].tolist()  # n reads as -1


def _settle_level_arcs(pred, src, dist, tail, head) -> None:
    """Lower `pred` along tight arcs between nodes of equal distance.

    Such an arc u -> v counts only when the heap settles u before v.  Among
    equal distances the heap pops the smallest id it holds; a node is held
    once the source, a closer tight neighbour or a settled equal neighbour
    has reached it.  This replays that order on the nodes these arcs touch.
    """
    n = len(pred)
    out: dict[int, list[int]] = {}
    for u, v in zip(tail.tolist(), head.tolist()):
        out.setdefault(u, []).append(v)
    heap = [(dist[u], u) for u in out if u == src or pred[u] < n]
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


def path_from_predecessors(pred: list[int], src: int, dst: int) -> list[int]:
    """The path src..dst read back along `pred`; NoPath when the walk from
    dst ends, or cycles for len(pred) steps, without reaching src."""
    path = [dst]
    while path[-1] != src:
        p = pred[path[-1]]
        if p < 0 or len(path) > len(pred):
            raise NoPath(f"no path recorded from {src} to {dst}")
        path.append(p)
    path.reverse()
    return path


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

@dataclass
class CentralityScores:
    metric: str
    values: list[float]
    params: dict = field(default_factory=dict)


def degree_centrality(g: SurfaceGraph) -> CentralityScores:
    """Incident edge count per node (unweighted)."""
    vals = [0.0] * len(g.nodes)
    for i, j, _ in g.edges:
        vals[i] += 1.0
        vals[j] += 1.0
    return CentralityScores(metric="degree", values=vals)


def betweenness_centrality(g: SurfaceGraph, weighted: bool = True) -> CentralityScores:
    """Exact betweenness: fractional shortest-path credit over unordered
    pairs, unnormalized.

    On a forest (edge count = node count - component count) every path is
    unique, so the scores come in closed form in O(n): a node whose removal
    splits its m-node component into pieces of sizes s_i lies inside
    ((m-1)^2 - sum s_i^2) / 2 paths, whatever the (positive) edge weights.
    The counts are integers, so they equal the Brandes result bit for bit.

    Graphs with a cycle use Brandes' two-phase accumulation (forward
    shortest-path counting, reverse dependency propagation) from every node.
    The inner loop is a priority-queue Dijkstra; when every edge carries the
    same weight the queue degenerates to FIFO order, so a plain breadth-first
    queue is used there — path structure and credits are identical, only
    faster.
    """
    adj = g.adjacency()
    params = {"weighted": weighted}
    vals = _forest_betweenness(adj, len(g.edges))
    if vals is not None:
        return CentralityScores(metric="betweenness", values=vals, params=params)
    n = len(adj)
    if weighted:
        weights = {w for _, _, w in g.edges}
        uniform = len(weights) <= 1
        adj_w = adj
    else:
        uniform = True
        adj_w = [[(v, 1.0) for v, _ in lst] for lst in adj]
    cb = [0.0] * n
    for s in range(n):
        if uniform:
            order, preds, sigma = _sssp_uniform(adj_w, s)
        else:
            order, preds, sigma = _sssp_dijkstra(adj_w, s)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                cb[w] += delta[w]
    # undirected: each unordered pair was counted from both endpoints
    vals = [x / 2.0 for x in cb]
    return CentralityScores(metric="betweenness", values=vals, params=params)


def _forest_betweenness(adj, edge_count: int) -> list[float] | None:
    """Closed-form betweenness from subtree sizes, or None when the graph has
    a cycle.  One breadth-first pass per component; the piece above v has
    m - size[v] nodes."""
    n = len(adj)
    parent = [-1] * n
    seen = [False] * n
    components = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for u in order:  # grows while it is walked: breadth-first order
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    order.append(v)
        components.append(order)
    if edge_count != n - len(components):
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


def _sssp_dijkstra(adj, s):
    n = len(adj)
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
        for v, w in adj[u]:
            if done[v]:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                sigma[v] = sigma[u]
                preds[v] = [u]
                heappush(heap, (nd, v))
            elif nd == dist[v]:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return order, preds, sigma


def _sssp_uniform(adj, s):
    # breadth-first layers; valid because all edge weights are equal
    n = len(adj)
    depth = [-1] * n
    sigma = [0.0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    depth[s] = 0
    sigma[s] = 1.0
    order = []
    queue = deque([s])
    while queue:
        u = queue.popleft()
        order.append(u)
        du = depth[u]
        for v, _ in adj[u]:
            if depth[v] < 0:
                depth[v] = du + 1
                queue.append(v)
            if depth[v] == du + 1:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return order, preds, sigma


def _sparse_adjacency(g: SurfaceGraph) -> csr_matrix:
    """Unweighted symmetric adjacency in CSR form, O(edges) memory.

    Built from the graph's arcs; a repeated edge or a self-loop still reads
    1.0, which is why the summed duplicates are reset."""
    n = len(g.nodes)
    arcs = g.arcs()
    a = coo_matrix((np.ones(len(arcs.tail)), (arcs.tail, arcs.head)), shape=(n, n)).tocsr()
    a.data[:] = 1.0
    return a


def _power_iteration(a: csr_matrix, max_iter: int):
    """Shifted power iteration on A + I from the all-ones vector.

    Each step yields the unit max-norm vector x, the next one
    y = (x + A x) / peak and peak = max(x + A x), which tends to the largest
    eigenvalue of A + I.  The shift keeps the iteration from oscillating on
    bipartite graphs.  Callers stop it with their own rule."""
    x = np.ones(a.shape[0])
    for _ in range(max_iter):
        y = x + a @ x
        peak = float(y.max())
        y /= peak
        yield x, y, peak
        x = y


def eigenvector_centrality(
    g: SurfaceGraph, tol: float = 1e-9, max_iter: int = 10000
) -> CentralityScores:
    """Principal-eigenvector scores of the unweighted adjacency matrix.

    Power iteration with an identity shift on a sparse adjacency (O(edges)
    memory), normalized to unit max-norm.  Requires a connected graph with at
    least one edge.
    """
    if not g.edges:
        raise EmptyGraph("eigenvector centrality needs at least one edge")
    residual = INF
    for x, y, _peak in _power_iteration(_sparse_adjacency(g), max_iter):
        residual = float(np.abs(y - x).max())
        if residual < tol:
            return CentralityScores(
                metric="eigenvector",
                values=[float(v) for v in y],
                params={"tol": tol, "max_iter": max_iter},
            )
    raise NoConvergence("eigenvector power iteration did not converge", residual)


# spectral_radius's stopping rule, which Katz's default alpha also uses
_RADIUS_TOL = 1e-12
_RADIUS_MAX_ITER = 10000


def spectral_radius(
    g: SurfaceGraph, tol: float = _RADIUS_TOL, max_iter: int = _RADIUS_MAX_ITER
) -> float:
    """Largest adjacency eigenvalue via shifted power iteration on a sparse
    adjacency (O(edges) memory)."""
    return _spectral_radius(_sparse_adjacency(g), tol, max_iter)


def _spectral_radius(a: csr_matrix, tol: float, max_iter: int) -> float:
    """Stops when the Rayleigh quotient x.(A + I)x / x.x moves by less than
    `tol` relative.  The max-norm peak is no stopping rule: on a grid it
    repeats at the second step, long before it converges."""
    if a.nnz == 0:
        return 0.0
    est = INF
    for x, y, peak in _power_iteration(a, max_iter):
        # y * peak is (A + I) x
        quotient = peak * float(x @ y) / float(x @ x)
        shift = abs(quotient - est)
        est = quotient
        if shift < tol * max(1.0, est):
            break
    return est - 1.0


def katz_centrality(
    g: SurfaceGraph,
    alpha: float | None = None,
    tol: float = 1e-9,
    max_iter: int = 100000,
) -> CentralityScores:
    """Katz scores: sum over path lengths i of alpha^i * (A^i 1), evaluated
    term by term until the added term drops below `tol`.  One sparse
    adjacency (O(edges) memory) serves the spectral radius and the series.

    `alpha` must satisfy 0 < alpha < 1/spectral_radius; None selects
    0.9/spectral_radius.  AlphaTooLarge is raised when the series diverges.
    """
    n = len(g.nodes)
    a = _sparse_adjacency(g)
    radius = _spectral_radius(a, _RADIUS_TOL, _RADIUS_MAX_ITER)
    if alpha is None:
        alpha = 0.9 / radius if radius > 1e-12 else 0.5
    if alpha <= 0.0:
        raise AlphaTooLarge(f"alpha must be positive, got {alpha}")
    if radius > 1e-12 and alpha * radius >= 1.0 - 1e-12:
        raise AlphaTooLarge(
            f"alpha {alpha:.6g} >= 1/spectral_radius {1.0 / radius:.6g}; series diverges"
        )
    term = alpha * (a @ np.ones(n))
    total = term.copy()
    growth_streak = 0
    prev_norm = float(np.abs(term).max()) if n else 0.0
    for _ in range(max_iter):
        if prev_norm < tol:
            return CentralityScores(
                metric="katz",
                values=[float(v) for v in total],
                params={"alpha": alpha, "tol": tol},
            )
        term = alpha * (a @ term)
        total += term
        norm = float(np.abs(term).max())
        growth_streak = growth_streak + 1 if norm > prev_norm else 0
        if growth_streak > 50:
            raise AlphaTooLarge(f"katz series diverges for alpha {alpha:.6g}")
        prev_norm = norm
    raise NoConvergence("katz series did not converge", prev_norm)


CENTRALITY_METRICS = ("degree", "betweenness", "eigenvector", "katz")


def compute_centrality(
    g: SurfaceGraph, metric: str, weighted: bool = True, alpha: float | None = None
) -> CentralityScores:
    """Dispatch by metric name; `weighted` only affects betweenness."""
    if metric == "degree":
        return degree_centrality(g)
    if metric == "betweenness":
        return betweenness_centrality(g, weighted=weighted)
    if metric == "eigenvector":
        return eigenvector_centrality(g)
    if metric == "katz":
        return katz_centrality(g, alpha=alpha)
    raise ValidationError(f"unknown centrality metric {metric!r}")
