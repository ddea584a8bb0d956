"""Brute-force reference implementations used to cross-check the fast paths.

Every function here deliberately takes a different algorithmic route from the
implementation it validates: Floyd-Warshall + explicit path counting instead
of priority-queue searches, exhaustive subset enumeration instead of greedy
construction, dense eigendecomposition instead of power iteration, explicit
matrix powers instead of vector recurrences.
"""
from __future__ import annotations

import itertools
import random

import numpy as np

from .graph import SurfaceGraph

_TIE_TOL = 1e-12


def weight_matrix(g: SurfaceGraph, weighted: bool = True) -> np.ndarray:
    n = len(g.nodes)
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for i, j, wt in g.edges:
        w[i, j] = w[j, i] = wt if weighted else 1.0
    return w


def floyd_warshall(w: np.ndarray) -> np.ndarray:
    d = w.copy()
    n = len(d)
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def shortest_path_counts(g: SurfaceGraph, d: np.ndarray, weighted: bool = True) -> np.ndarray:
    """sigma[s, v]: number of minimum-weight s->v paths, counted by dynamic
    programming over nodes in increasing distance order."""
    n = len(g.nodes)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, wt in g.edges:
        wt = wt if weighted else 1.0
        adj[i].append((j, wt))
        adj[j].append((i, wt))
    sigma = np.zeros((n, n))
    for s in range(n):
        order = sorted(range(n), key=lambda v: d[s, v])
        sigma[s, s] = 1.0
        for v in order:
            if v == s or not np.isfinite(d[s, v]):
                continue
            acc = 0.0
            for u, wt in adj[v]:
                if abs(d[s, u] + wt - d[s, v]) <= _TIE_TOL * max(1.0, d[s, v]):
                    acc += sigma[s, u]
            sigma[s, v] = acc
    return sigma


def betweenness_oracle(g: SurfaceGraph, weighted: bool = True) -> list[float]:
    """Betweenness from all-pairs distances and path counts: for every
    unordered pair (s, t), each interior node v on a shortest path receives
    sigma_sv * sigma_tv / sigma_st."""
    n = len(g.nodes)
    d = floyd_warshall(weight_matrix(g, weighted))
    sigma = shortest_path_counts(g, d, weighted)
    cb = [0.0] * n
    for s in range(n):
        for t in range(s + 1, n):
            if not np.isfinite(d[s, t]) or sigma[s, t] == 0.0:
                continue
            for v in range(n):
                if v == s or v == t:
                    continue
                if abs(d[s, v] + d[v, t] - d[s, t]) <= _TIE_TOL * max(1.0, d[s, t]):
                    cb[v] += sigma[s, v] * sigma[t, v] / sigma[s, t]
    return cb


def mst_weight_exhaustive(n: int, edges: list[tuple[int, int, float]]) -> float | None:
    """Minimum spanning weight by trying every (n-1)-edge subset."""
    if n == 1:
        return 0.0
    best = None
    for combo in itertools.combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        total = 0.0
        for idx in combo:
            i, j, w = edges[idx]
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
            total += w
        if ok and (best is None or total < best):
            best = total
    return best


def _prim(nodes: list[int], weight: dict[tuple[int, int], float]):
    """Prim's algorithm over an explicit node set; returns (weight, edges) or
    None when the induced graph is disconnected."""
    if not nodes:
        return None
    in_tree = {nodes[0]}
    edges = []
    total = 0.0
    while len(in_tree) < len(nodes):
        best = None
        for u in sorted(in_tree):
            for v in nodes:
                if v in in_tree:
                    continue
                key = (u, v) if u < v else (v, u)
                if key in weight:
                    cand = (weight[key], key[0], key[1])
                    if best is None or cand < best:
                        best = cand
        if best is None:
            return None
        w, a, b = best
        total += w
        edges.append((a, b, w))
        in_tree.update((a, b))
    return total, edges


def steiner_exhaustive(
    g: SurfaceGraph, terminals: list[int]
) -> tuple[float, int]:
    """Optimal Steiner weight by enumerating every subset of candidate
    intermediate nodes; also returns the largest leaf count among all optimal
    trees found (for the approximation-bound factor)."""
    weight = {(i, j): w for i, j, w in g.edges}
    term = sorted(set(terminals))
    others = [v for v in range(len(g.nodes)) if v not in set(term)]
    best = None
    best_leaves = 2
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            nodes = sorted(term + list(extra))
            res = _prim(nodes, weight)
            if res is None:
                continue
            total, edges = res
            if best is None or total < best - 1e-12:
                best = total
                best_leaves = _leaf_count(nodes, edges)
            elif abs(total - best) <= 1e-12:
                best_leaves = max(best_leaves, _leaf_count(nodes, edges))
    if best is None:
        raise ValueError("terminals cannot be connected")
    return best, best_leaves


def _leaf_count(nodes, edges) -> int:
    deg = {v: 0 for v in nodes}
    for a, b, _ in edges:
        deg[a] += 1
        deg[b] += 1
    return sum(1 for v in nodes if deg[v] == 1)


def eigenvector_oracle(g: SurfaceGraph) -> list[float]:
    """Principal eigenvector from a dense symmetric eigendecomposition,
    normalized to unit max-norm."""
    n = len(g.nodes)
    a = np.zeros((n, n))
    for i, j, _ in g.edges:
        a[i, j] = a[j, i] = 1.0
    vals, vecs = np.linalg.eigh(a)
    v = vecs[:, int(np.argmax(vals))]
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    v = v / v.max()
    return [float(x) for x in v]


def katz_oracle(g: SurfaceGraph, alpha: float, terms: int = 10000) -> list[float]:
    """Katz scores by summing explicit matrix powers alpha^i A^i applied to
    the all-ones vector until the added term is negligible."""
    n = len(g.nodes)
    a = np.zeros((n, n))
    for i, j, _ in g.edges:
        a[i, j] = a[j, i] = 1.0
    power = np.eye(n)
    total = np.zeros(n)
    ones = np.ones(n)
    for _ in range(terms):
        power = power @ (alpha * a)
        term = power @ ones
        total += term
        if float(np.abs(term).max()) < 1e-12:
            break
    return [float(x) for x in total]


def tree_path_interior_counts(g: SurfaceGraph) -> list[float]:
    """Betweenness on a tree by walking the unique path of every pair."""
    n = len(g.nodes)
    adj = g.adjacency()
    cb = [0.0] * n

    def path(s, t):
        prev = {s: None}
        stack = [s]
        while stack:
            v = stack.pop()
            if v == t:
                break
            for u, _ in adj[v]:
                if u not in prev:
                    prev[u] = v
                    stack.append(u)
        out = [t]
        while prev[out[-1]] is not None:
            out.append(prev[out[-1]])
        return out

    for s in range(n):
        for t in range(s + 1, n):
            for v in path(s, t)[1:-1]:
                cb[v] += 1.0
    return cb


def shoelace_sign(ring2d) -> float:
    """Winding of a 2D ring from its shoelace sum, where the surface reads it
    off the Newell normal: +1.0 counter-clockwise (or zero area), -1.0 clockwise."""
    pts = [tuple(p) for p in ring2d]
    area2 = sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]))
    return 1.0 if area2 >= 0.0 else -1.0


# ---------------------------------------------------------------------------
# self-check suites (CLI `oracle` subcommand)
# ---------------------------------------------------------------------------

def run_oracle_suites(seed: int = 0, instances: int = 25) -> list[tuple[str, bool, str]]:
    """Cross-check fast implementations against the oracles on random inputs.

    Returns (suite name, passed, detail) triples.
    """
    from .algorithms import (
        betweenness_centrality,
        eigenvector_centrality,
        katz_centrality,
        kruskal_edges,
        spectral_radius,
    )
    from .fixtures import random_connected_graph, random_forest_graph
    from .steiner import build_steiner_tree
    from .terminals import TerminalSet

    rng = random.Random(seed)
    results = []

    worst = 0.0
    ok = True
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(4, 12), rng.uniform(0.4, 0.8))
        term_ids = sorted(rng.sample(range(len(g.nodes)), rng.randint(2, 4)))
        tree = build_steiner_tree(
            g, TerminalSet(node_ids=term_ids, selection_method="metric")
        )
        opt, leaves = steiner_exhaustive(g, term_ids)
        bound = 2.0 * (1.0 - 1.0 / leaves) * opt if leaves else 2.0 * opt
        worst = max(worst, tree.total_weight / opt if opt else 1.0)
        if tree.total_weight > bound + 1e-9:
            ok = False
    results.append(("steiner-bound", ok, f"worst ratio {worst:.4f}"))

    err = 0.0
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(4, 20), rng.uniform(0.2, 0.6))
        fast = betweenness_centrality(g).values
        slow = betweenness_oracle(g)
        err = max(err, max(abs(a - b) for a, b in zip(fast, slow)))
    results.append(("betweenness-exact", err <= 1e-9, f"max abs err {err:.2e}"))

    ok = True
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(4, 9), 0.4)
        if len(g.edges) > 14:
            continue
        mst = kruskal_edges(range(len(g.nodes)), g.edges)
        ref = mst_weight_exhaustive(len(g.nodes), g.edges)
        if abs(mst.total_weight - ref) > 1e-9:
            ok = False
    results.append(("mst-exhaustive", ok, "spanning-subset enumeration"))

    err = 0.0
    kerr = 0.0
    for _ in range(instances):
        g = random_connected_graph(rng, rng.randint(3, 15), rng.uniform(0.3, 0.7))
        ev = eigenvector_centrality(g).values
        ev_ref = eigenvector_oracle(g)
        err = max(err, max(abs(a - b) for a, b in zip(ev, ev_ref)))
        alpha = 0.5 / max(spectral_radius(g), 1e-9)
        kz = katz_centrality(g, alpha=alpha).values
        kz_ref = katz_oracle(g, alpha)
        kerr = max(kerr, max(abs(a - b) for a, b in zip(kz, kz_ref)))
    results.append(("eigenvector-dense", err <= 1e-6, f"max abs err {err:.2e}"))
    results.append(("katz-series", kerr <= 1e-6, f"max abs err {kerr:.2e}"))

    err = 0.0
    for _ in range(instances):
        sizes = [rng.randint(1, 10) for _ in range(rng.randint(2, 5))]
        g = random_forest_graph(rng, sizes)
        weighted = rng.random() < 0.5
        fast = betweenness_centrality(g, weighted=weighted).values
        slow = betweenness_oracle(g, weighted=weighted)
        err = max(err, max(abs(a - b) for a, b in zip(fast, slow)))
    results.append(("betweenness-forest", err <= 1e-9, f"max abs err {err:.2e}"))
    return results
