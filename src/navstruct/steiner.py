"""Approximate Steiner trees over terminal node sets.

Mehlhorn's construction (IPL 27, 1988): one shortest-path search from all
terminals at once splits the graph into regions, one per terminal (the nodes
closest to it).  Each edge between two regions is a bridge of cost
d(u) + w + d(v); a spanning tree over the regions' cheapest bridges is a
spanning tree of the terminals' metric closure, and expanding its bridges
along the shortest paths gives the Steiner tree.  Total weight is within
2*(1 - 1/leaf-count) of optimal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithms import dijkstra_tree, kruskal_edges
from .errors import DisconnectedTerminals, EmptyTerminalSet, ValidationError
from .graph import SurfaceGraph
from .terminals import TerminalSet

INF = float("inf")


@dataclass
class SteinerTree:
    nodes: list[int]                      # ascending original graph node ids
    edges: list[tuple[int, int, float]]   # i < j, sorted
    terminals: TerminalSet
    total_weight: float
    # the tree as a graph of its own, built by the first dense_graph call
    dense: SurfaceGraph | None = field(init=False, repr=False, compare=False, default=None)

    def dense_graph(self, g: SurfaceGraph) -> SurfaceGraph:
        """The tree as a graph, built once: node k is `nodes[k]` with `g`'s
        payload (`g` is the graph the tree was cut from), the edges keep their
        weights.  ValidationError when `nodes` does not ascend or holds no
        end of some edge."""
        if self.dense is None:
            ids = np.array(self.nodes, dtype=np.intp)
            if np.any(ids[1:] <= ids[:-1]):
                raise ValidationError("Steiner tree nodes must ascend")
            rows = np.array(self.edges, dtype=float).reshape(-1, 3)
            ends = rows[:, :2].astype(np.intp)
            stray = np.flatnonzero(~np.isin(ends, ids).all(axis=1))
            if len(stray):
                i, j, _w = self.edges[stray[0]]
                raise ValidationError(f"Steiner tree edge ({i}, {j}) ends outside its nodes")
            rows[:, :2] = np.searchsorted(ids, ends)
            self.dense = SurfaceGraph([g.nodes[v] for v in self.nodes], rows)
        return self.dense


def build_steiner_tree(g: SurfaceGraph, terminals: TerminalSet) -> SteinerTree:
    """Connect all terminals by a light subtree of `g`.

    Raises EmptyTerminalSet for an empty selection and DisconnectedTerminals
    (naming the smallest terminal and the smallest one it cannot reach) when
    two terminals live in different components.

    Deterministic.  A node's region is the terminal its predecessor chain
    ends at.  Each pair of regions keeps its bridge ranked first by
    (d(u) + w + d(v), u, v), and Kruskal ranks the pairs by (cost, region
    ids).  Each part of the tree inside a region is a subtree of one
    shortest-path tree, and the bridges join the regions as a tree, so the
    expanded union is a tree whose leaves are all terminals.
    """
    term_ids = sorted(set(terminals.node_ids))
    if not term_ids:
        raise EmptyTerminalSet("steiner construction needs at least one terminal")
    for t in term_ids:
        if not (0 <= t < len(g.nodes)):
            raise EmptyTerminalSet(f"terminal {t} is not a node of the graph")

    dist, pred = dijkstra_tree(g, term_ids)
    parent = np.array(pred)
    # pointer jumping: each step doubles how far up its chain a node points
    region = np.where(parent < 0, np.arange(len(parent)), parent)
    step = region[region]
    while not np.array_equal(step, region):
        region, step = step, step[step]
    # the edges (u < v) whose ends lie in different regions, in (u, v) order
    tail, head, weight = g.arcs.ascending()
    across = region[tail] != region[head]
    region = region.tolist()

    bridges: dict[tuple[int, int], tuple[float, int, int, float]] = {}
    for u, v, w in zip(*(col[across].tolist() for col in (tail, head, weight))):
        if dist[u] < INF:
            a, b = region[u], region[v]
            key = (a, b) if a < b else (b, a)
            cand = (dist[u] + w + dist[v], u, v, w)
            if key not in bridges or cand < bridges[key]:
                bridges[key] = cand
    chosen = kruskal_edges(term_ids, [(a, b, c[0]) for (a, b), c in bridges.items()])
    if chosen.component_count > 1:
        from scipy.sparse.csgraph import connected_components

        labels = connected_components(g.arcs.matrix)[1]
        first = term_ids[0]
        raise DisconnectedTerminals(
            (first, next(t for t in term_ids if labels[t] != labels[first]))
        )

    # expand each bridge along the predecessors up to both region roots; one
    # search of the arcs, sorted by (tail, head), weighs each x -> pred[x]
    arcs, n = g.arcs, len(g.nodes)
    below = np.flatnonzero(parent >= 0)
    up = np.zeros(n)
    up[below] = arcs.weight[np.searchsorted(arcs.tail * n + arcs.head, below * n + parent[below])]
    up = up.tolist()
    nodes = set(term_ids)
    edges = []
    for a, b, _cost in chosen.edges:
        _, u, v, w = bridges[a, b]
        edges.append((u, v, w))
        for x in (u, v):
            while x not in nodes:
                nodes.add(x)
                p = pred[x]
                key = (p, x) if p < x else (x, p)
                edges.append((*key, up[x]))
                x = p
    edges.sort()
    total = float(sum(w for _, _, w in edges))
    return SteinerTree(nodes=sorted(nodes), edges=edges, terminals=terminals, total_weight=total)
